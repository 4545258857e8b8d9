package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"lifeguard/internal/obs"
)

// datasetSeed fixes the benchmark's data set: the synthetic Internet every
// workload runs on, and the cast drawn on it (which ASes play origin,
// vantage point and target, which transits fail, which stubs announce).
// -seed draws everything that happens to that data set: the engine's timing
// jitter, the order operations arrive in, when in the monitor's cycle each
// failure strikes, the flow population. Every window does the same set of
// operations, so runs with different seeds are statistically the same
// workload. Drawing the graph or the cast from -seed instead would fold the
// difference between two random Internets into every metric — many times
// the bounds in BENCHMARK.json — and a regression could hide inside it.
const datasetSeed = 20120813

// env is what a workload is built from.
type env struct {
	seed  int64
	scale float64       // 1 for a real run; the smoke tests shrink it
	obs   *obs.Registry // nil unless traced
	tr    *tracer       // nil unless traced
	sl    *slicer       // nil unless this process is one side of a paired run
}

func (e env) traced() bool { return e.tr != nil }

// scaled shrinks a full-size count n by the env's scale, never below min.
func (e env) scaled(n, min int) int {
	v := int(math.Round(float64(n) * e.scale))
	if v < min {
		return min
	}
	return v
}

// workload names one of the benchmark's workloads and knows how to set up a
// fresh world for it.
type workload struct {
	name string
	// opUnit says what one op is, for the human-readable report.
	opUnit string
	// nominal is the reference implementation's ops per second on the
	// reference box in fair weather. A paired run reports the subject's
	// speed relative to the reference times this, so ops_per_s reads like
	// a rate and starts out near what the host really does.
	nominal float64
	// build sets the world up, through to the end of a warm-up window of
	// the workload's own work, so lazy initialisation (LPM compilation,
	// path caches, heap growth) is paid before timing starts. It returns
	// an error — and the command exits non-zero — when the world cannot
	// supply the work the workload is specified to do (e.g. too few
	// repairable outage scenarios, a warm-up op failing its checks),
	// rather than quietly measuring less.
	build func(env) (world, error)
}

// world is one set-up instance of a workload.
type world interface {
	// window runs the workload's fixed unit of work once — identical work
	// every call — timing it itself so it can leave its own checking and
	// garbage disposal out. It offers to yield (stopwatch.yield) every few
	// tens of milliseconds of work, so a paired run can interleave it with
	// the reference implementation's window.
	window() windowStats
	// lab returns the pieces of the live world the per-layer unit costs
	// are measured on (traced runs only, after the timed windows).
	lab() (*labRig, error)
}

// windowStats is what one window did and what it cost.
type windowStats struct {
	wall           time.Duration
	mallocs, bytes uint64
	ops, failed    int
	opWalls        []time.Duration // per-op host time, where a window has several ops
	simLatency     []float64       // the workload's simulated latency samples, virtual seconds
	updates        int64           // BGP updates sent
	steps          int64           // simclock events the benchmark stepped (traced runs)
	lenSum         int64           // Σ scheduler queue length over those steps
}

// rate is the window's ops per host second.
func (ws *windowStats) rate() float64 { return float64(ws.ops) / ws.wall.Seconds() }

// slicer is how a worker process of a paired run hands the machine over in
// the middle of a window: hand blocks until it is this side's turn again.
// It is nil, or has no hand yet (set-up, warm-up), everywhere else.
type slicer struct{ hand func() }

// stopwatch brackets the timed part of a window: host time and the
// allocator's counters.
type stopwatch struct {
	t0  time.Time
	acc time.Duration // host time of the slices already finished
	m0  runtime.MemStats
	sl  *slicer
}

func startWatch(e env) *stopwatch {
	sw := &stopwatch{sl: e.sl}
	runtime.ReadMemStats(&sw.m0)
	sw.t0 = wallNow()
	return sw
}

// yield ends a slice of the window: in a paired run the other side runs its
// own slice now, and the watch is stopped meanwhile. Elsewhere it does
// nothing. Workloads call it between pieces of a few tens of milliseconds.
func (sw *stopwatch) yield() {
	if sw == nil || sw.sl == nil || sw.sl.hand == nil {
		return
	}
	sw.acc += since(sw.t0)
	sw.sl.hand()
	sw.t0 = wallNow()
}

func (sw *stopwatch) stop(ws *windowStats) {
	ws.wall += sw.acc + since(sw.t0)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ws.mallocs += m.Mallocs - sw.m0.Mallocs
	ws.bytes += m.TotalAlloc - sw.m0.TotalAlloc
}

// simWindows is how many timed windows the simulated statistics
// (sim_latency_s, updates_per_op) are taken over. It is fixed, and every
// run completes at least that many, so that these numbers depend on the
// seed alone and not on how many windows the host had time for.
const simWindows = 8

// phase is one set-up-and-measure pass over a workload.
type phase struct {
	setups  []float64 // seconds per set-up (build, warm-up window included)
	windows []windowStats
	world   world
	host    hostDelta
	// obs counters around the timed windows (traced runs only).
	before, after map[string]int64
	// pairedRatio holds, per timed window, the rate of the window an
	// untraced twin world ran just before it over this world's rate
	// (traced runs only).
	pairedRatio []float64
}

// hostDelta is what the host and runtime did during the timed windows.
type hostDelta struct {
	gcCPUFrac  float64
	gcCycles   uint64
	heapLiveMB float64
	timedWall  time.Duration
}

// setUp builds the workload's world reps times, keeping the last, and
// reports the host seconds of each set-up.
//
// Set-up is repeated because it is the noisiest thing measured: one
// fresh-heap bulk convergence, exactly what a burst of interference hits
// hardest. The median of several is reported.
func setUp(wl workload, e env, reps int) (*phase, error) {
	p := &phase{}
	for i := 0; i < reps; i++ {
		if p.world != nil {
			// Dispose of the previous world outside any timing, so
			// peak RSS is one world's, not two.
			p.world = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := wallNow()
		id := e.tr.begin("setup")
		w, err := wl.build(e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		e.tr.end(id)
		p.setups = append(p.setups, since(t0).Seconds())
		p.world = w
	}
	return p, nil
}

// measure runs timed windows until seconds of host time have passed, and at
// least simWindows of them. With a twin — the same workload set up untraced
// — it alternates: one window of the twin, one of its own, so that both see
// the same weather and their ratio is the cost of tracing rather than of a
// neighbour's burst.
func (p *phase) measure(e env, seconds float64, twin world) {
	if e.obs != nil {
		p.before = counters(e.obs)
	}
	gc0, t0 := readGC(), wallNow()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	for wallNow().Before(deadline) || len(p.windows) < simWindows {
		var tw windowStats
		if twin != nil {
			tw = twin.window()
		}
		id := e.tr.begin("window")
		ws := p.world.window()
		e.tr.end(id)
		p.windows = append(p.windows, ws)
		p.host.timedWall += ws.wall
		if twin != nil {
			p.pairedRatio = append(p.pairedRatio, tw.rate()/ws.rate())
		}
	}
	gc1 := readGC()
	if e.obs != nil {
		p.after = counters(e.obs)
	}
	if d := gc1.totalCPU - gc0.totalCPU; d > 0 {
		p.host.gcCPUFrac = (gc1.gcCPU - gc0.gcCPU) / d
	}
	p.host.gcCycles = gc1.cycles - gc0.cycles
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.host.heapLiveMB = float64(m.HeapAlloc) / (1 << 20)
}

// totals sums ops and failures over the timed windows.
func (p *phase) totals() (ops, failed int) {
	for _, w := range p.windows {
		ops += w.ops
		failed += w.failed
	}
	return ops, failed
}

// simWindows is the first simWindows timed windows: what every count that
// must depend on the seed alone is taken over.
func (p *phase) simWindows() []windowStats { return p.windows[:min(simWindows, len(p.windows))] }

// simStats returns the simulated statistics over the first simWindows
// windows: the mean simulated latency, and BGP updates per op. (The mean,
// not the median: latencies cluster on the monitor's 30-second grid, and a
// median flips between grid points where a mean moves smoothly.)
func (p *phase) simStats() (latency, updatesPerOp float64) {
	var lat []float64
	var updates int64
	ops := 0
	for _, w := range p.simWindows() {
		lat = append(lat, w.simLatency...)
		updates += w.updates
		ops += w.ops
	}
	return mean(lat), float64(updates) / float64(ops)
}

// opWallP95 is the 95th-percentile host time of one op, in milliseconds
// (of one window, for workloads whose window is a single op). Diagnostic
// only: on a shared host the tail is the neighbours', not the program's.
func (p *phase) opWallP95() float64 {
	var xs []float64
	for _, w := range p.windows {
		if len(w.opWalls) == 0 {
			xs = append(xs, float64(w.wall)/float64(time.Millisecond))
		}
		for _, d := range w.opWalls {
			xs = append(xs, float64(d)/float64(time.Millisecond))
		}
	}
	return quantile(xs, 0.95)
}
