package experiments

import (
	"context"

	"lifeguard/internal/obs"
	"lifeguard/internal/runner"
)

// RunSuite is the one experiment driver: it runs several experiments across
// consecutive seeds as one flat trial pool, the unit of parallelism lgexp
// uses.
// The returned results are indexed [experiment][seed offset], reduced in
// deterministic order regardless of how the pool interleaved the trials, so
// every report is byte-identical to a Parallelism 1 run. A failing trial
// (panic, timeout, error) aborts the suite with the runner's typed error.
// reg, when non-nil, accumulates every trial's metrics, merged by runner.Map
// in trial-index order.
func RunSuite(ctx context.Context, exps []Experiment, baseSeed int64, seeds int, cfg runner.Config, reg *obs.Registry) ([][]*Result, error) {
	if seeds < 1 {
		seeds = 1
	}
	type unit struct {
		sc    scenario
		seed  int64
		trial int
	}
	var units []unit
	for _, e := range exps {
		for s := 0; s < seeds; s++ {
			for i := 0; i < e.scenario.trials; i++ {
				units = append(units, unit{e.scenario, baseSeed + int64(s), i})
			}
		}
	}

	parts, err := runner.Map(ctx, len(units), cfg, reg, func(_ context.Context, i int, reg *obs.Registry) (any, error) {
		u := units[i]
		return u.sc.run(u.seed, u.trial, reg), nil
	})
	if err != nil {
		return nil, err
	}

	out := make([][]*Result, len(exps))
	for ei, e := range exps {
		out[ei] = make([]*Result, seeds)
		for s := range out[ei] {
			out[ei][s] = e.scenario.reduce(parts[:e.scenario.trials])
			parts = parts[e.scenario.trials:]
		}
	}
	return out, nil
}

// SuiteTrialCount reports how many independent trials RunSuite would
// schedule — the suite's effective parallelism ceiling.
func SuiteTrialCount(exps []Experiment, seeds int) int {
	n := 0
	for _, e := range exps {
		n += e.scenario.trials
	}
	return n * max(seeds, 1)
}
