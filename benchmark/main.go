// Command benchmark is the repository's benchmark: four workloads that drive
// the LIFEGUARD reproduction through its public functions as one closed-loop
// client, check every operation, and print each metric by name and unit.
// See README.md in this directory for what is measured and why.
//
//	bash benchmark/run.sh --workload repair --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"lifeguard/internal/obs"
)

var workloads = []workload{
	{name: "repair", opUnit: "outage repaired and unpoisoned", nominal: 28, build: buildRepair},
	{name: "converge", opUnit: "loc-RIB route installed", nominal: 110_000, build: buildConverge},
	{name: "churn", opUnit: "poison + unpoison cycle", nominal: 20, build: buildChurn},
	{name: "traffic", opUnit: "data-plane packet", nominal: 24_000_000, build: buildTraffic},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times an untraced run sets the workload up; the
// median is setup_s.
const setupReps = 3

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	scale     float64
	traceOut  string
	selfcheck bool
	ref       string // the benchmark built against ref/; empty: unpaired run
	worker    bool   // this process is one side of a paired run
	setups    int    // a worker's number of set-ups
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: repair, converge, churn or traffic")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", 20, "host seconds of timed windows")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Float64Var(&o.scale, "scale", 1, "shrink every workload size by this factor (smoke tests)")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.json)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "A/A mode: run the workload twice and compare each end-to-end metric with its bound")
	flag.StringVar(&o.ref, "ref", "", "this benchmark built against the frozen reference implementation (run.sh passes it); ops_per_s is then measured paired with it")
	flag.BoolVar(&o.worker, "worker", false, "internal: run as one side of a paired run, taking orders on standard input")
	flag.IntVar(&o.setups, "setups", 1, "internal: a worker's number of set-ups")
	flag.Parse()
	o.trace = trace != 0
	if o.seconds <= 0 || o.scale <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -scale must be positive; no positional arguments")
		os.Exit(2)
	}
	wl, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	var err error
	switch {
	case o.worker:
		err = runWorker(wl, o)
	case o.selfcheck:
		err = selfcheck(os.Stdout, wl, o)
	case o.trace:
		_, err = runTraced(os.Stdout, wl, o)
	default:
		_, err = runEndToEnd(os.Stdout, wl, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runEndToEnd is a --trace 0 run: tracing off, no obs registry. Given the
// reference build (-ref) it is a paired run — two worker processes, see
// pair.go — and ops_per_s is the subject's speed relative to the reference,
// scaled by the workload's nominal rate. Without one, everything happens in
// this process and ops_per_s is the plain window-median rate on this host.
func runEndToEnd(out io.Writer, wl workload, o options) (result, error) {
	ticks0 := readCPUTicks()
	var p *phase
	var opsPerS, peakRSS float64
	var refWindows []windowStats
	if o.ref != "" {
		pp, err := measurePaired(o)
		if err != nil {
			return result{}, err
		}
		p, refWindows, peakRSS = pp.phase, pp.refWindows, pp.exit.PeakRSSMB
		opsPerS = pairedRate(p.windows, refWindows, wl.nominal)
	} else {
		e := env{seed: o.seed, scale: o.scale}
		var err error
		if p, err = setUp(wl, e, setupReps); err != nil {
			return result{}, err
		}
		p.measure(e, o.seconds, nil)
		opsPerS, peakRSS = windowRate(p.windows), peakRSSMB()
	}
	ops, failed := p.totals()
	lat, upd := p.simStats()
	res := result{
		Correct: failed == 0, Attempted: ops, Failed: failed,
		Metrics: map[string]metric{
			"setup_s":        {median(p.setups), "s"},
			"ops_per_s":      {opsPerS, "1/s"},
			"allocs_per_op":  {allocsPerOp(p.simWindows()), "count"},
			"peak_rss_mb":    {peakRSS, "MB"},
			"sim_latency_s":  {lat, "s"},
			"updates_per_op": {upd, "count"},
		},
	}
	printHeader(out, wl, o)
	printHost(out, stealFrac(ticks0, readCPUTicks()))
	printMetrics(out, res.Metrics)
	fmt.Fprintf(out, "diag op=%q windows=%d setups_s=%s op_ms_p95=%.4g gc_cpu_frac=%.4f timed_wall_s=%.3f\n",
		wl.opUnit, len(p.windows), fmtFloats(p.setups), p.opWallP95(), p.host.gcCPUFrac, p.host.timedWall.Seconds())
	fmt.Fprintf(out, "diag raw_ops_per_s=%.6g window_ops_per_s=%s\n", windowRate(p.windows), fmtFloats(rates(p.windows)))
	if refWindows != nil {
		fmt.Fprintf(out, "diag paired nominal_ops_per_s=%g ref_raw_ops_per_s=%.6g ref_window_ops_per_s=%s\n",
			wl.nominal, windowRate(refWindows), fmtFloats(rates(refWindows)))
	}
	return res, printResult(out, res)
}

// runTraced is a --trace 1 run. It sets the workload up twice in one
// process — tracing off, and on with an obs registry — and alternates their
// windows, so the ratio of the two is the tracing overhead; then measures
// each layer's unit cost on the traced world, and writes the spans out.
func runTraced(out io.Writer, wl workload, o options) (result, error) {
	ticks0 := readCPUTicks()
	plain, err := setUp(wl, env{seed: o.seed, scale: o.scale}, 1)
	if err != nil {
		return result{}, err
	}
	e := env{seed: o.seed, scale: o.scale, obs: obs.New(), tr: newTracer()}
	p, err := setUp(wl, e, 1)
	if err != nil {
		return result{}, err
	}
	p.measure(e, o.seconds, plain.world)
	plain = nil
	runtime.GC()
	debug.FreeOSMemory()

	lab, err := p.world.lab()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", wl.name, err)
	}
	labID := e.tr.begin("lab")
	costs, err := lab.run(p.meanQueueLen())
	e.tr.end(labID)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", wl.name, err)
	}

	ops, failed := p.totals()
	res := result{Correct: failed == 0, Attempted: ops, Failed: failed}
	res.Metrics = layerMetrics(p, lab.fill, costs, e.tr.spans)
	res.Metrics["trace.overhead_frac"] = metric{median(p.pairedRatio) - 1, "frac"}
	res.Metrics["host.steal_frac"] = metric{stealFrac(ticks0, readCPUTicks()), "frac"}

	file := o.traceOut
	if file == "" {
		file = filepath.Join(".bench_build", "trace-"+wl.name+".json")
	}
	if err := e.tr.write(file, wl.name, o.seed, readHostFacts()); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	printHeader(out, wl, o)
	printHost(out, res.Metrics["host.steal_frac"].Value)
	printMetrics(out, res.Metrics)
	fmt.Fprintf(out, "diag op=%q windows=%d spans=%d trace_file=%s\n", wl.opUnit, len(p.windows), len(e.tr.spans), file)
	return res, printResult(out, res)
}

func printHeader(out io.Writer, wl workload, o options) {
	fmt.Fprintf(out, "# lifeguard benchmark  workload=%s seed=%d seconds=%g trace=%v scale=%g\n",
		wl.name, o.seed, o.seconds, o.trace, o.scale)
}

func printHost(out io.Writer, steal float64) {
	h := readHostFacts()
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s %s/%s steal_frac=%.4f\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, steal)
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-34s %16.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

func printResult(out io.Writer, res result) error {
	buf, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(buf))
	return err
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// selfcheck is the A/A mode: the same workload and seed twice, back to back
// in one process, and each end-to-end metric's relative difference beside
// the bound BENCHMARK.json gives it. A timing metric whose A/A difference
// nears its bound means the windows are too short for this host.
func selfcheck(out io.Writer, wl workload, o options) error {
	a, err := runEndToEnd(out, wl, o)
	if err != nil {
		return err
	}
	runtime.GC()
	debug.FreeOSMemory()
	b, err := runEndToEnd(out, wl, o)
	if err != nil {
		return err
	}
	bounds := readBounds()
	names := make([]string, 0, len(a.Metrics))
	for name := range a.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "# selfcheck %s seed=%d: A vs A\n", wl.name, o.seed)
	worst := false
	for _, name := range names {
		d := relDiff(a.Metrics[name].Value, b.Metrics[name].Value)
		bound, known := bounds[name]
		verdict := "ok"
		if known && d > bound {
			verdict, worst = "EXCEEDS BOUND", true
		} else if known && d > bound/2 {
			verdict = "over half the bound"
		}
		fmt.Fprintf(out, "%-16s a=%-14.6g b=%-14.6g diff=%.4f bound=%.4f %s\n",
			name, a.Metrics[name].Value, b.Metrics[name].Value, d, bound, verdict)
	}
	if worst {
		return fmt.Errorf("selfcheck: an A/A difference exceeds its bound")
	}
	return nil
}

// readBounds loads the end-to-end bounds from BENCHMARK.json in the working
// directory; missing or unreadable, every bound reads as unknown.
func readBounds() map[string]float64 {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	out := make(map[string]float64)
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil || json.Unmarshal(buf, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
