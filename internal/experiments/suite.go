package experiments

import (
	"lifeguard/internal/obs"
	"lifeguard/internal/runner"
)

// RunSuite is the one experiment driver: it runs several experiments across
// consecutive seeds (at least one) as one flat list of trials, in order.
// The returned results are indexed [experiment][seed offset]. A failing
// trial (panic or error) aborts the suite with the runner's typed error.
// reg, when non-nil, accumulates every trial's metrics, merged by runner.Map
// in trial order.
func RunSuite(exps []Experiment, baseSeed int64, seeds int, reg *obs.Registry) ([][]*Result, error) {
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

	parts, err := runner.Map(len(units), reg, func(i int, reg *obs.Registry) (any, error) {
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

// SuiteTrialCount reports how many independent trials RunSuite would run.
func SuiteTrialCount(exps []Experiment, seeds int) int {
	n := 0
	for _, e := range exps {
		n += e.scenario.trials
	}
	return n * seeds
}
