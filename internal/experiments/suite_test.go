package experiments

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"lifeguard/internal/obs"
	"lifeguard/internal/runner"
)

// cheapIDs are multi-trial experiments fast enough to run repeatedly in
// the equivalence tests (the heavyweight artifacts share the same sweep
// machinery, so they inherit the guarantee).
var cheapIDs = []string{"fig1", "fig5", "tab2", "abl-threshold", "abl-dampening"}

func cheapExperiments(t *testing.T) []Experiment {
	t.Helper()
	var exps []Experiment
	for _, id := range cheapIDs {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		exps = append(exps, e)
	}
	return exps
}

// runSeq regenerates one experiment for one seed on the runner's sequential
// reference path.
func runSeq(tb testing.TB, e Experiment, seed int64) *Result {
	tb.Helper()
	res, err := RunSuite(context.Background(), []Experiment{e}, seed, 1, runner.Config{Parallelism: 1}, nil)
	if err != nil {
		tb.Fatalf("%s seed %d: %v", e.ID, seed, err)
	}
	return res[0][0]
}

// TestRunSuiteMatchesSequential asserts the determinism contract for the
// flat experiments×seeds pool lgexp runs: every (experiment, seed) cell
// must match an isolated sequential run, and the suite's registry must
// equal every trial's own registry merged in trial order. traffic rides
// along for its gauge, which a trial Sets: written straight into a shared
// registry, the last trial to finish would win instead of the merge's sum.
func TestRunSuiteMatchesSequential(t *testing.T) {
	traffic, ok := ByID("traffic")
	if !ok {
		t.Fatal("experiment \"traffic\" missing")
	}
	exps := append(cheapExperiments(t), traffic)
	const baseSeed, seeds = 1, 2
	reg := obs.New()
	results, err := RunSuite(context.Background(), exps, baseSeed, seeds, runner.Config{Parallelism: 8}, reg)
	if err != nil {
		t.Fatal(err)
	}
	want := obs.New()
	for _, e := range exps {
		for s := 0; s < seeds; s++ {
			for i := 0; i < e.scenario.trials; i++ {
				trial := obs.New()
				e.scenario.run(baseSeed+int64(s), i, trial)
				want.Merge(trial)
			}
		}
	}
	var got, merged bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.Snapshot().WriteJSON(&merged); err != nil {
		t.Fatal(err)
	}
	if got.String() != merged.String() {
		t.Errorf("suite registry differs from the per-trial registries merged in trial order")
	}
	if len(results) != len(exps) {
		t.Fatalf("got %d experiment rows, want %d", len(results), len(exps))
	}
	for ei, e := range exps {
		if len(results[ei]) != seeds {
			t.Fatalf("%s: got %d seed cells, want %d", e.ID, len(results[ei]), seeds)
		}
		for s := 0; s < seeds; s++ {
			want := runSeq(t, e, baseSeed+int64(s)).String()
			if got := results[ei][s].String(); got != want {
				t.Errorf("%s seed %d: suite output differs from sequential run", e.ID, baseSeed+int64(s))
			}
		}
	}
}

func TestSuiteTrialCount(t *testing.T) {
	exps := cheapExperiments(t)
	// fig1=1, fig5=1, tab2=1, abl-threshold=6, abl-dampening=4 trials per
	// seed.
	if got := SuiteTrialCount(exps, 2); got != 2*(1+1+1+6+4) {
		t.Fatalf("SuiteTrialCount = %d, want %d", got, 2*(1+1+1+6+4))
	}
}

// TestRunSuitePropagatesTrialPanic asserts a panicking trial surfaces as a
// runner.TrialError instead of crashing or hanging the pool.
func TestRunSuitePropagatesTrialPanic(t *testing.T) {
	e := Experiment{
		ID:    "boom",
		Brief: "panics",
		scenario: sweep([]bool{false, true},
			func(_ int64, bad bool, _ *obs.Registry) int {
				if bad {
					panic("synthetic trial failure")
				}
				return 1
			},
			func([]int) *Result { return newResult("boom", "unreachable") }),
	}
	_, err := RunSuite(context.Background(), []Experiment{e}, 1, 1, runner.Config{Parallelism: 4}, nil)
	if err == nil {
		t.Fatal("expected error from panicking trial")
	}
	var te *runner.TrialError
	if !errors.As(err, &te) {
		t.Fatalf("error %v is not a *runner.TrialError", err)
	}
	if te.Trial != 1 || len(te.Stack) == 0 {
		t.Fatalf("TrialError{Trial: %d, stack %d bytes}; want trial 1 with stack", te.Trial, len(te.Stack))
	}
}
