// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 and §5). Each experiment returns a Result holding rendered
// tables, the headline numbers as machine-readable values (so benchmarks
// and tests can assert on the shape), and notes comparing against the
// numbers the paper reports. The absolute values come from a simulated
// internetwork rather than the authors' testbed; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"lifeguard/internal/metrics"
	"lifeguard/internal/obs"
)

// Result is the outcome of one experiment.
type Result struct {
	// ID names the experiment after the paper artifact it regenerates
	// ("fig1", "tab2", "sec5.2-loss", ...).
	ID string
	// Title is a human-readable one-liner.
	Title string
	// Tables are the rendered rows, mirroring the paper's presentation.
	Tables []*metrics.Table
	// Values holds the headline numbers, keyed by stable names, for
	// programmatic assertions.
	Values map[string]float64
	// Notes records paper-vs-measured commentary.
	Notes []string
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Values: make(map[string]float64)}
}

func (r *Result) addTable(t *metrics.Table) { r.Tables = append(r.Tables, t) }

func (r *Result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the full report.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	if len(r.Values) > 0 {
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("values:\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-40s %.4f\n", k, r.Values[k])
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// scenario is one experiment's trials for a seed plus their reduction.
// Trials are independent: each builds every piece of simulated state it
// needs — topology, engine, virtual clock — from the seed, shares nothing
// mutable with any other trial, and runs single-threaded, so the simclock
// single-ownership invariant holds whether trials run sequentially or on
// runner workers. reduce sees the parts in trial order, so the Result is
// byte-identical however the trials were scheduled. Only sweep builds one.
type scenario struct {
	trials int
	run    func(seed int64, trial int, reg *obs.Registry) any
	reduce func(parts []any) *Result
}

// sweep is the one experiment shape: one trial per x, run(seed, x, reg)
// each, reduced in xs order. run may panic on simulation bugs (the runner
// captures the stack) and must be deterministic; reg, when non-nil, is the
// trial's private registry, and a nil reg yields the same part. reduce must
// be pure: no clock, no rand, no state beyond parts. This is the only place
// a trial's part is asserted back to its type.
func sweep[X, P any](xs []X, run func(seed int64, x X, reg *obs.Registry) P, reduce func(parts []P) *Result) scenario {
	return scenario{
		trials: len(xs),
		run:    func(seed int64, i int, reg *obs.Registry) any { return run(seed, xs[i], reg) },
		reduce: func(parts []any) *Result {
			typed := make([]P, len(parts))
			for i, p := range parts {
				typed[i] = p.(P)
			}
			return reduce(typed)
		},
	}
}

// single sweeps a monolithic run function as one trial: the experiment's
// work is not subdividable without changing its random streams, so the
// whole run is the unit of parallelism.
func single(run func(seed int64, reg *obs.Registry) *Result) scenario {
	return sweep([]struct{}{{}},
		func(seed int64, _ struct{}, reg *obs.Registry) *Result { return run(seed, reg) },
		func(parts []*Result) *Result { return parts[0] })
}

// noObs adapts an experiment with no simulated network underneath (pure
// arithmetic over generated outage events) to the obs-threaded trial
// shape; there is nothing to instrument.
func noObs(run func(seed int64) *Result) func(int64, *obs.Registry) *Result {
	return func(seed int64, _ *obs.Registry) *Result { return run(seed) }
}

// Experiment couples an ID with its scenario; RunSuite runs it.
type Experiment struct {
	ID       string
	Brief    string
	scenario scenario
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "outage duration CDF vs share of unavailability (§2.1)", single(noObs(Fig1))},
		{"fig5", "residual outage duration after X minutes (§4.2)", single(noObs(Fig5))},
		{"alt", "policy-compliant alternate paths during outages (§2.2)", single(altPaths)},
		{"fwd", "forward-path provider diversity (§2.3)", single(forwardDiversity)},
		{"efficacy", "poisoning efficacy: testbed + large-scale simulation (Table 1, §5.1)", efficacyScenario},
		{"fig6", "per-peer and global convergence after poisoning (Fig. 6, §5.2)", convergenceScenario},
		{"loss", "packet loss during post-poisoning convergence (§5.2)", lossScenario},
		{"selective", "selective poisoning of AS links (§5.2)", single(selective)},
		{"accuracy", "failure isolation accuracy vs traceroute (Table 1, §5.3)", single(accuracy)},
		{"scale", "atlas refresh and isolation overhead (§5.4)", single(scalability)},
		{"tab2", "Internet-wide update load from poisoning (Table 2, §5.4)", single(noObs(Table2))},
		{"baselines", "traditional route-control techniques vs remote failures (§2.3)", single(baselines)},
		{"chaos", "scripted fault timelines vs the repair loop, by intensity", sweep(chaosIntensities, chaosTrial, reduceChaos)},
		{"multitenant", "per-tenant repair pipelines on a shared rig, by tenant count", sweep(multitenantCounts, multitenantTrial, reduceMultitenant)},
		{"traffic", "user-seconds lost through outage→repair, with and without LIFEGUARD", trafficScenario},
	}
}

// ByID returns the experiment (paper artifact or ablation) with the given
// ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range append(All(), Ablations()...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
