package experiments

import (
	"context"

	"lifeguard/internal/obs"
	"lifeguard/internal/runner"
)

// unitOut pairs one trial's partial result with the private registry it
// reported into (nil when the run is uninstrumented).
type unitOut struct {
	part any
	reg  *obs.Registry
}

// runUnits executes trial closures on the pool, giving each its own
// registry when dst is enabled, and merges the per-trial registries into
// dst in trial-index order after the pool drains. Per-trial metrics are
// pure functions of the trial, and the merge order is fixed, so dst's
// snapshot is byte-identical at every parallelism level.
func runUnits(ctx context.Context, units []func(reg *obs.Registry) any, cfg runner.Config, dst *obs.Registry) ([]any, error) {
	outs, err := runner.Map(ctx, len(units), cfg, func(_ context.Context, i int) (unitOut, error) {
		var reg *obs.Registry
		if dst.Enabled() {
			reg = obs.New()
		}
		return unitOut{part: units[i](reg), reg: reg}, nil
	})
	if err != nil {
		return nil, err
	}
	parts := make([]any, len(outs))
	for i, o := range outs {
		parts[i] = o.part
		dst.Merge(o.reg)
	}
	return parts, nil
}

// RunParallel executes one experiment's trials on the runner pool and
// reduces them in trial order. For any fixed seed the Result — and hence
// the rendered report — is byte-identical to Run at every parallelism
// level; only wall-clock time changes. reg, when non-nil, accumulates the
// trials' metrics (merged in trial order).
func (e Experiment) RunParallel(ctx context.Context, seed int64, cfg runner.Config, reg *obs.Registry) (*Result, error) {
	trials := e.Scenario.Trials(seed)
	units := make([]func(reg *obs.Registry) any, len(trials))
	for i := range trials {
		units[i] = trials[i].Run
	}
	parts, err := runUnits(ctx, units, cfg, reg)
	if err != nil {
		return nil, err
	}
	return e.Scenario.Reduce(seed, parts), nil
}

// span locates one (experiment, seed) reduction's parts inside the flat
// trial pool.
type span struct{ start, n int }

// RunSuite runs several experiments across consecutive seeds as one flat
// trial pool — the sharding axis lgexp uses. The returned
// results are indexed [experiment][seed offset], reduced in deterministic
// order regardless of how the pool interleaved the trials. A failing
// trial (panic, timeout, error) aborts the suite with the runner's typed
// error. reg, when non-nil, accumulates every trial's metrics: each trial
// reports into a private registry, merged into reg in trial-index order,
// so reg's snapshot is byte-identical at every parallelism level.
func RunSuite(ctx context.Context, exps []Experiment, baseSeed int64, seeds int, cfg runner.Config, reg *obs.Registry) ([][]*Result, error) {
	if seeds < 1 {
		seeds = 1
	}
	var units []func(reg *obs.Registry) any
	spans := make([][]span, len(exps))
	for ei, e := range exps {
		spans[ei] = make([]span, seeds)
		for s := 0; s < seeds; s++ {
			trials := e.Scenario.Trials(baseSeed + int64(s))
			spans[ei][s] = span{start: len(units), n: len(trials)}
			for i := range trials {
				units = append(units, trials[i].Run)
			}
		}
	}

	parts, err := runUnits(ctx, units, cfg, reg)
	if err != nil {
		return nil, err
	}

	out := make([][]*Result, len(exps))
	for ei, e := range exps {
		out[ei] = make([]*Result, seeds)
		for s, sp := range spans[ei] {
			out[ei][s] = e.Scenario.Reduce(baseSeed+int64(s), parts[sp.start:sp.start+sp.n])
		}
	}
	return out, nil
}

// SuiteTrialCount reports how many independent trials RunSuite would
// schedule — the suite's effective parallelism ceiling.
func SuiteTrialCount(exps []Experiment, baseSeed int64, seeds int) int {
	if seeds < 1 {
		seeds = 1
	}
	n := 0
	for _, e := range exps {
		for s := 0; s < seeds; s++ {
			n += len(e.Scenario.Trials(baseSeed + int64(s)))
		}
	}
	return n
}
