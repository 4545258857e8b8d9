package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A paired run measures speed against a yardstick that feels the same
// weather. The shared host's speed drifts by tens of per cent over seconds
// and minutes (neighbours on the same cores, caches and memory), so an
// absolute ops ÷ wall says as much about the minute it was taken in as about
// the program. The benchmark therefore carries a frozen copy of the program
// (ref/, the reference implementation) and builds itself twice: against the
// repository (the subject) and against ref/. One coordinator process starts
// one worker process of each, and the two run the same workload, seed and
// windows in alternating slices of a few tens of milliseconds: only one
// worker runs at a time, the other is stopped (SIGSTOP) and so does nothing,
// garbage collection included. Each window gives one ratio — subject rate ÷
// reference rate, both taken in the same second — and the median ratio over
// windows, times the reference's nominal rate, is ops_per_s.
//
// The wire protocol is lines on the worker's standard streams:
//
//	worker → "ready <json setups>"   set-ups done, warm world waiting
//	coord  → "go"                    run to the next yield, or the window's end
//	worker → "yield" | "end <json windowStats>"
//	coord  closes stdin; worker → "bye <json workerExit>" and exits

// wireWindow is windowStats on the wire.
type wireWindow struct {
	WallNs     int64     `json:"wall_ns"`
	Mallocs    uint64    `json:"mallocs"`
	Bytes      uint64    `json:"bytes"`
	Ops        int       `json:"ops"`
	Failed     int       `json:"failed"`
	OpWallsNs  []int64   `json:"op_walls_ns,omitempty"`
	SimLatency []float64 `json:"sim_latency,omitempty"`
	Updates    int64     `json:"updates"`
}

func toWire(ws windowStats) wireWindow {
	w := wireWindow{
		WallNs: int64(ws.wall), Mallocs: ws.mallocs, Bytes: ws.bytes, Ops: ws.ops,
		Failed: ws.failed, SimLatency: ws.simLatency, Updates: ws.updates,
	}
	for _, d := range ws.opWalls {
		w.OpWallsNs = append(w.OpWallsNs, int64(d))
	}
	return w
}

func (w wireWindow) stats() windowStats {
	ws := windowStats{
		wall: time.Duration(w.WallNs), mallocs: w.Mallocs, bytes: w.Bytes, ops: w.Ops,
		failed: w.Failed, simLatency: w.SimLatency, updates: w.Updates,
	}
	for _, d := range w.OpWallsNs {
		ws.opWalls = append(ws.opWalls, time.Duration(d))
	}
	return ws
}

// workerExit is what a worker reports about itself as it leaves.
type workerExit struct {
	PeakRSSMB float64 `json:"peak_rss_mb"`
	GCCPUFrac float64 `json:"gc_cpu_frac"` // over its timed windows
}

// --- worker side ---

// runWorker is one side of a paired run: set the workload up, then run
// windows slice by slice as the coordinator on the standard streams says.
func runWorker(wl workload, o options) error {
	sl := &slicer{}
	p, err := setUp(wl, env{seed: o.seed, scale: o.scale, sl: sl}, o.setups)
	if err != nil {
		return err
	}
	in, out := bufio.NewReader(os.Stdin), os.Stdout
	say := func(word string, v any) error {
		buf, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s %s\n", word, buf)
		return err
	}
	// told waits for the coordinator: true on "go", false once it has
	// closed the stream.
	told := func() bool {
		line, err := in.ReadString('\n')
		return err == nil && line == "go\n"
	}
	if err := say("ready", p.setups); err != nil {
		return err
	}
	sl.hand = func() {
		fmt.Fprintln(out, "yield")
		if !told() {
			os.Exit(3) // coordinator gone mid-window
		}
	}
	gc0 := readGC()
	var timed time.Duration
	for told() {
		ws := p.world.window()
		timed += ws.wall
		if err := say("end", toWire(ws)); err != nil {
			return err
		}
	}
	bye := workerExit{PeakRSSMB: peakRSSMB()}
	// The runtime's own total counts the time this process sat stopped;
	// the CPU on offer during its slices is what GC is a share of.
	if offered := timed.Seconds() * float64(runtime.GOMAXPROCS(0)); offered > 0 {
		bye.GCCPUFrac = (readGC().gcCPU - gc0.gcCPU) / offered
	}
	return say("bye", bye)
}

// --- coordinator side ---

// worker is the coordinator's handle on one worker process.
type worker struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	setups []float64
}

// startWorker launches bin as a worker, waits until it has set up setups
// times, and leaves it stopped. The caller must release it.
func startWorker(bin string, o options, setups int) (*worker, error) {
	cmd := exec.Command(bin, "-worker",
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-setups", strconv.Itoa(setups))
	cmd.Stderr = os.Stderr
	// A stopped worker must not outlive a coordinator that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, in: in, out: bufio.NewReader(outPipe)}
	word, rest, err := w.hear()
	if err == nil && word != "ready" {
		err = fmt.Errorf("said %q, want ready", word)
	}
	if err == nil {
		err = json.Unmarshal([]byte(rest), &w.setups)
	}
	if err != nil {
		w.release()
		return nil, fmt.Errorf("worker %s: set-up: %w", bin, err)
	}
	w.signal(syscall.SIGSTOP)
	return w, nil
}

func (w *worker) signal(sig syscall.Signal) { _ = syscall.Kill(w.cmd.Process.Pid, sig) }

// hear reads one protocol line.
func (w *worker) hear() (word, rest string, err error) {
	line, err := w.out.ReadString('\n')
	if err != nil {
		return "", "", fmt.Errorf("worker ended early: %w", err)
	}
	word, rest, _ = strings.Cut(strings.TrimSuffix(line, "\n"), " ")
	return word, rest, nil
}

// step lets the worker run one slice. It returns the window's statistics
// once the slice was the window's last.
func (w *worker) step() (*windowStats, error) {
	w.signal(syscall.SIGCONT)
	defer w.signal(syscall.SIGSTOP)
	if _, err := io.WriteString(w.in, "go\n"); err != nil {
		return nil, err
	}
	word, rest, err := w.hear()
	switch {
	case err != nil:
		return nil, err
	case word == "yield":
		return nil, nil
	case word == "end":
		var ww wireWindow
		if err := json.Unmarshal([]byte(rest), &ww); err != nil {
			return nil, err
		}
		ws := ww.stats()
		return &ws, nil
	}
	return nil, fmt.Errorf("worker said %q mid-window", word)
}

// finish lets the worker report and leave.
func (w *worker) finish() (workerExit, error) {
	var bye workerExit
	w.signal(syscall.SIGCONT)
	w.in.Close()
	word, rest, err := w.hear()
	if err == nil && word != "bye" {
		err = fmt.Errorf("worker said %q, want bye", word)
	}
	if err == nil {
		err = json.Unmarshal([]byte(rest), &bye)
	}
	if werr := w.cmd.Wait(); err == nil {
		err = werr
	}
	return bye, err
}

// release makes sure the worker is gone and reaped; harmless after finish.
func (w *worker) release() {
	_ = w.cmd.Process.Kill() // SIGKILL also ends a stopped process
	w.in.Close()
	_ = w.cmd.Wait()
}

// pairedWindow runs one window on both workers in alternating slices. Which
// side takes the first slice alternates with k, so neither always runs on
// the caches the other left.
func pairedWindow(subject, ref *worker, k int) (s, r windowStats, err error) {
	sides := [2]*worker{subject, ref}
	var done [2]*windowStats
	for done[0] == nil || done[1] == nil {
		for j := 0; j < 2; j++ {
			i := (j + k) % 2
			if done[i] != nil {
				continue
			}
			if done[i], err = sides[i].step(); err != nil {
				return s, r, err
			}
		}
	}
	return *done[0], *done[1], nil
}

// pairedPhase is a paired run's measurements: the subject's phase, and the
// reference's windows beside it.
type pairedPhase struct {
	*phase
	refWindows []windowStats
	exit       workerExit // the subject's
}

// measurePaired sets the workload up in a subject worker (setupReps times:
// setup_s is the subject's) and a reference worker (once), then runs paired
// windows until seconds of host time have passed, and at least simWindows.
func measurePaired(o options) (*pairedPhase, error) {
	// Pdeathsig fires when the thread that started the child exits; pin
	// the coordinator to one thread that lives as long as the process.
	runtime.LockOSThread()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ref, err := startWorker(o.ref, o, 1)
	if err != nil {
		return nil, err
	}
	defer ref.release()
	subject, err := startWorker(self, o, setupReps)
	if err != nil {
		return nil, err
	}
	defer subject.release()

	pp := &pairedPhase{phase: &phase{setups: subject.setups}}
	deadline := wallNow().Add(time.Duration(o.seconds * float64(time.Second)))
	for k := 0; wallNow().Before(deadline) || k < simWindows; k++ {
		s, r, err := pairedWindow(subject, ref, k)
		if err != nil {
			return nil, err
		}
		if r.failed > 0 {
			return nil, fmt.Errorf("the reference implementation failed %d of %d ops", r.failed, r.ops)
		}
		pp.windows = append(pp.windows, s)
		pp.refWindows = append(pp.refWindows, r)
		pp.host.timedWall += s.wall
	}
	if _, err := ref.finish(); err != nil {
		return nil, fmt.Errorf("reference worker: %w", err)
	}
	if pp.exit, err = subject.finish(); err != nil {
		return nil, fmt.Errorf("subject worker: %w", err)
	}
	pp.host.gcCPUFrac = pp.exit.GCCPUFrac
	return pp, nil
}
