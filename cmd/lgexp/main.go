// Command lgexp regenerates the paper's tables and figures from the
// simulated internetwork. Run with no arguments to execute every
// experiment, or name specific ones:
//
//	lgexp                    # everything, paper order
//	lgexp -exp fig6          # one experiment
//	lgexp -list              # what exists
//	lgexp -seed 7 -exp accuracy
//	lgexp -seeds 5 -parallel 8   # 5-seed variance report on 8 workers
//
// Reports go to stdout; timing and progress chatter go to stderr, so
// stdout is byte-identical for a fixed seed at every -parallel level
// (diff it to audit the determinism contract).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lifeguard/internal/experiments"
	"lifeguard/internal/obs"
	"lifeguard/internal/runner"
)

// options collects everything main parses from flags, so tests can drive
// writeReports directly.
type options struct {
	ids       []string // empty: all paper artifacts (or ablations)
	ablations bool
	seed      int64
	seeds     int
	parallel  int           // runner workers; <=0 means GOMAXPROCS
	timeout   time.Duration // per-trial wall-clock watchdog; 0 disables
	obsPath   string        // write merged metrics snapshot JSON here; "" disables obs
}

func main() {
	var (
		list      = flag.Bool("list", false, "list experiments and exit")
		exp       = flag.String("exp", "", "comma-separated experiment IDs (default: all paper artifacts)")
		ablations = flag.Bool("ablations", false, "run the design-choice ablations instead")
		seed      = flag.Int64("seed", 1, "workload/topology seed")
		seeds     = flag.Int("seeds", 1, "average headline values over this many consecutive seeds")
		parallel  = flag.Int("parallel", 0, "trial workers (0 = GOMAXPROCS, 1 = sequential)")
		timeout   = flag.Duration("timeout", 0, "per-trial wall-clock timeout (0 = none)")
		obsPath   = flag.String("obs", "", "write the merged metrics snapshot (JSON) to this file; empty disables instrumentation")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Brief)
		}
		for _, e := range experiments.Ablations() {
			fmt.Printf("%-16s %s\n", e.ID, e.Brief)
		}
		return
	}

	opts := options{
		ablations: *ablations,
		seed:      *seed,
		seeds:     *seeds,
		parallel:  *parallel,
		timeout:   *timeout,
		obsPath:   *obsPath,
	}
	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			opts.ids = append(opts.ids, strings.TrimSpace(id))
		}
	}

	err := writeReports(context.Background(), os.Stdout, os.Stderr, opts)
	if err == nil {
		return
	}
	var unknown *unknownExperimentError
	if errors.As(err, &unknown) {
		fmt.Fprintf(os.Stderr, "lgexp: %v (try -list)\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "lgexp: %v\n", err)
	var te *runner.TrialError
	if errors.As(err, &te) && len(te.Stack) > 0 {
		fmt.Fprintf(os.Stderr, "trial %d stack:\n%s", te.Trial, te.Stack)
	}
	os.Exit(1)
}

type unknownExperimentError struct{ id string }

func (e *unknownExperimentError) Error() string {
	return fmt.Sprintf("unknown experiment %q", e.id)
}

// selectExperiments resolves the requested experiment set in paper order.
func selectExperiments(opts options) ([]experiments.Experiment, error) {
	switch {
	case opts.ablations && len(opts.ids) == 0:
		return experiments.Ablations(), nil
	case len(opts.ids) == 0:
		return experiments.All(), nil
	}
	var todo []experiments.Experiment
	for _, id := range opts.ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, &unknownExperimentError{id: id}
		}
		todo = append(todo, e)
	}
	return todo, nil
}

// writeReports runs the selected experiments across seeds on the runner
// pool and renders each report to out. Chatter (timings, worker count)
// goes to errw only: for a fixed configuration the bytes written to out
// are identical at every parallelism level.
func writeReports(ctx context.Context, out, errw io.Writer, opts options) error {
	todo, err := selectExperiments(opts)
	if err != nil {
		return err
	}
	if opts.seeds < 1 {
		opts.seeds = 1
	}
	cfg := runner.Config{Parallelism: opts.parallel, Timeout: opts.timeout}

	// Experiments run entirely on the virtual clock; this stopwatch only
	// tells the operator how long the real machine took.
	start := time.Now()
	fmt.Fprintf(errw, "lgexp: %d experiments x %d seeds = %d trials on %d workers\n",
		len(todo), opts.seeds, experiments.SuiteTrialCount(todo, opts.seeds), cfg.Workers())

	// Metrics go to a side file, never stdout: the report stream stays
	// byte-identical whether or not instrumentation is on (-obs set), and
	// across every -parallel level.
	var reg *obs.Registry
	if opts.obsPath != "" {
		reg = obs.New()
	}

	results, err := experiments.RunSuite(ctx, todo, opts.seed, opts.seeds, cfg, reg)
	if err != nil {
		return err
	}

	for ei := range todo {
		if opts.seeds == 1 {
			fmt.Fprint(out, results[ei][0].String())
			fmt.Fprintln(out)
			continue
		}
		agg := experiments.NewAggregate()
		for _, r := range results[ei] {
			agg.Add(r)
		}
		fmt.Fprint(out, agg.String())
	}

	if opts.obsPath != "" {
		if err := writeSnapshot(opts.obsPath, reg); err != nil {
			return err
		}
		fmt.Fprintf(errw, "lgexp: wrote metrics snapshot to %s\n", opts.obsPath)
	}

	fmt.Fprintf(errw, "lgexp: suite completed in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// writeSnapshot dumps the merged registry as JSON. Per-trial registries are
// merged in trial-index order, so for a fixed configuration the file is
// byte-identical at every -parallel level.
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
