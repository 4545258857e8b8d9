// Command lgchaos runs chaos fault timelines (internal/chaos) against
// freshly generated internetworks and reports the invariant checker's
// verdict. Timelines come from the seeded outage-calibrated generator or
// from a script file:
//
//	lgchaos                                  # one generated timeline
//	lgchaos -seed 7 -intensity 2 -faults 8   # denser generated timeline
//	lgchaos -script failures.chaos           # scripted timeline
//	lgchaos -trials 4                        # independent consecutive seeds
//	lgchaos -obs metrics.json                # metrics snapshot side-file
//	lgchaos -list-faults                     # print the fault vocabulary
//
// Reports go to stdout; timing and progress chatter go to stderr, so
// stdout is byte-identical for a fixed configuration (diff it to audit the
// determinism contract). The exit status is 0 when every trial upheld every
// invariant, 3 when violations were found, 1 on a runtime error and 2 on a
// flag value no run can use.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lifeguard"
	"lifeguard/internal/obs"
	"lifeguard/internal/runner"
)

// Default topology size: big enough for real transit diversity, small
// enough that a multi-trial sweep stays interactive.
const (
	defaultTransit = 10
	defaultStub    = 20
)

// options collects everything main parses from flags, so tests can drive
// writeReports directly.
type options struct {
	script    string // script text; "" means generate
	seed      int64
	intensity float64
	faults    int
	trials    int
	obsPath   string // write merged metrics snapshot JSON here; "" disables obs
	transit   int
	stub      int
}

func main() {
	var (
		scriptPath = flag.String("script", "", "chaos script file (default: generate a timeline per trial)")
		seed       = flag.Int64("seed", 1, "base seed for topology and timeline generation")
		intensity  = flag.Float64("intensity", 1, "fault density multiplier for generated timelines")
		faults     = flag.Int("faults", 5, "faults per generated timeline")
		trials     = flag.Int("trials", 1, "independent trials on consecutive seeds")
		obsPath    = flag.String("obs", "", "write the merged metrics snapshot (JSON) to this file; empty disables instrumentation")
		transit    = flag.Int("transit", defaultTransit, "transit ASes in each generated internetwork")
		stub       = flag.Int("stub", defaultStub, "stub ASes in each generated internetwork")
		listFaults = flag.Bool("list-faults", false, "print the chaos script's fault vocabulary and exit")
	)
	flag.Parse()

	if *listFaults {
		writeFaultList(os.Stdout)
		return
	}
	switch {
	case *faults < 1:
		badFlag("-faults must be at least 1, got %d", *faults)
	case *trials < 1:
		badFlag("-trials must be at least 1, got %d", *trials)
	case *transit < 1:
		badFlag("-transit must be at least 1, got %d", *transit)
	case *stub < 2:
		// Every trial probes reachability between the first two stubs.
		badFlag("-stub must be at least 2, got %d", *stub)
	}

	opts := options{
		seed: *seed, intensity: *intensity, faults: *faults,
		trials: *trials, obsPath: *obsPath,
		transit: *transit, stub: *stub,
	}
	if *scriptPath != "" {
		buf, err := os.ReadFile(*scriptPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lgchaos: %v\n", err)
			os.Exit(1)
		}
		opts.script = string(buf)
	}

	violations, err := writeReports(os.Stdout, os.Stderr, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lgchaos: %v\n", err)
		os.Exit(1)
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "lgchaos: %d invariant violations\n", violations)
		os.Exit(3)
	}
}

// badFlag rejects a flag value before anything is generated from it.
func badFlag(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lgchaos: "+format+"\n", args...)
	os.Exit(2)
}

// trialOut is one trial's rendered report.
type trialOut struct {
	text       string
	violations int
}

// writeReports runs the trials and renders each report to out in seed
// order, returning the total violation count. Chatter goes to errw only:
// for a fixed configuration the bytes written to out are identical run to
// run, and identical with -obs on or off.
func writeReports(out, errw io.Writer, opts options) (int, error) {
	if opts.transit == 0 {
		opts.transit = defaultTransit
	}
	if opts.stub == 0 {
		opts.stub = defaultStub
	}

	// The simulation runs on virtual time; this stopwatch only tells the
	// operator how long the real machine took.
	start := time.Now()
	fmt.Fprintf(errw, "lgchaos: %d trials\n", opts.trials)

	var dst *obs.Registry
	if opts.obsPath != "" {
		dst = obs.New()
	}

	outs, err := runner.Map(opts.trials, dst, func(i int, reg *obs.Registry) (trialOut, error) {
		return runTrial(opts, opts.seed+int64(i), reg)
	})
	if err != nil {
		return 0, err
	}

	violations := 0
	for _, o := range outs {
		fmt.Fprint(out, o.text)
		violations += o.violations
	}

	if opts.obsPath != "" {
		if err := writeSnapshot(opts.obsPath, dst); err != nil {
			return 0, err
		}
		fmt.Fprintf(errw, "lgchaos: wrote metrics snapshot to %s\n", opts.obsPath)
	}

	fmt.Fprintf(errw, "lgchaos: completed in %v\n", time.Since(start).Round(time.Millisecond))
	return violations, nil
}

// runTrial assembles one internetwork, resolves its timeline (parsed per
// trial — faults carry per-run state, so a script is never shared across
// trials), runs it, and renders the deterministic report block.
func runTrial(opts options, seed int64, reg *obs.Registry) (trialOut, error) {
	net, err := lifeguard.GenerateInternet(
		lifeguard.InternetConfig{Seed: seed, NumTransit: opts.transit, NumStub: opts.stub},
		lifeguard.NetworkOptions{Obs: reg},
	)
	if err != nil {
		return trialOut{}, fmt.Errorf("trial seed %d: %w", seed, err)
	}

	var script *lifeguard.ChaosScript
	if opts.script != "" {
		script, err = lifeguard.ParseChaosScript(opts.script)
	} else {
		script, err = lifeguard.GenerateChaosScript(net.Top, lifeguard.ChaosGenConfig{
			Seed: seed, N: opts.faults, Intensity: opts.intensity,
		})
	}
	if err != nil {
		return trialOut{}, fmt.Errorf("trial seed %d: %w", seed, err)
	}

	// Reachability probes asserted at all-healed barriers: both directions
	// between two stub edges of the generated internetwork.
	s0, s1 := net.Gen.Stubs[0], net.Gen.Stubs[1]
	reach := []lifeguard.ChaosReachProbe{
		{From: net.Hub(s0), To: net.RouterAddr(net.Hub(s1))},
		{From: net.Hub(s1), To: net.RouterAddr(net.Hub(s0))},
	}

	rep, err := lifeguard.NewRig(net).RunChaos(script, lifeguard.ChaosOptions{Obs: reg, Reach: reach})
	if err != nil {
		return trialOut{}, fmt.Errorf("trial seed %d: %w", seed, err)
	}

	text := fmt.Sprintf("## trial seed=%d\nscript:\n", seed)
	for _, line := range splitLines(script.String()) {
		text += "  " + line + "\n"
	}
	text += rep.String() + "\n"
	return trialOut{text: text, violations: len(rep.Violations)}, nil
}

// writeFaultList prints the chaos script vocabulary, one keyword per line,
// already sorted by the chaos package's contract.
func writeFaultList(w io.Writer) {
	for _, d := range lifeguard.ChaosVocabulary() {
		fmt.Fprintf(w, "%-44s %s\n", d.Usage, d.Doc)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// writeSnapshot dumps the merged registry as JSON. runner.Map merges the
// per-trial registries in trial order, so for a fixed configuration the
// file is byte-identical run to run.
func writeSnapshot(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics snapshot: %w", err)
	}
	if err := reg.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics snapshot: %w", err)
	}
	return f.Close()
}
