package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"lifeguard/internal/bgp"
	"lifeguard/internal/hijack"
	"lifeguard/internal/obs"
)

// Options tunes a chaos run.
type Options struct {
	// Reach lists data-plane reachability probes asserted at all-healed
	// barriers.
	Reach []ReachProbe
	// Obs, when non-nil, receives chaos counters (injections, heals,
	// barriers, violations by invariant). Observe-only by the repo-wide
	// contract: enabling it cannot change the timeline.
	Obs *obs.Registry
}

// Runner executes one Script against one Target. Build with NewRunner; a
// Runner is single-use and runs entirely on the simulation goroutine.
type Runner struct {
	tgt    *Target
	script *Script
	opts   Options
	chk    *checker

	active   map[Fault]bool
	injected int
	healed   int
	barriers int

	mInject, mHeal, mBarrier *obs.Counter
	mViolation               func(Invariant) *obs.Counter
}

// Report summarizes a finished run. Its String form is deterministic —
// same script, same seed, same target state ⇒ identical bytes — which the
// lgchaos CLI and the parallelism identity tests rely on.
type Report struct {
	// Faults and Checks count scripted steps by flavor.
	Faults, Checks int
	// Injected and Healed count fault transitions actually performed.
	Injected, Healed int
	// Barriers counts invariant-checker runs (scripted checks plus the
	// implicit final barrier).
	Barriers int
	// Start and End bound the run in virtual time.
	Start, End time.Duration
	// BaselineFingerprint is the pre-chaos loc-RIB hash.
	BaselineFingerprint uint64
	// Violations holds every invariant breach in detection order.
	Violations []Violation
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Err returns the first violation as an error, or nil.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return r.Violations[0]
}

// String renders the deterministic report block.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d faults, %d scripted checks\n", r.Faults, r.Checks)
	fmt.Fprintf(&b, "  injected %d, healed %d, barriers %d\n", r.Injected, r.Healed, r.Barriers)
	fmt.Fprintf(&b, "  virtual time %v .. %v\n", r.Start, r.End)
	fmt.Fprintf(&b, "  baseline fingerprint %016x\n", r.BaselineFingerprint)
	fmt.Fprintf(&b, "  violations: %d\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "    [%v] %v: %s\n", v.At, v.Invariant, v.Detail)
	}
	return b.String()
}

// NewRunner validates the script against the target and prepares a run.
func NewRunner(tgt *Target, script *Script, opts Options) (*Runner, error) {
	if err := script.Validate(tgt); err != nil {
		return nil, err
	}
	r := &Runner{
		tgt:    tgt,
		script: script,
		opts:   opts,
		chk:    &checker{tgt: tgt, reach: opts.Reach},
		active: make(map[Fault]bool),
	}
	r.mInject = opts.Obs.Counter("lifeguard_chaos_faults_injected_total")
	r.mHeal = opts.Obs.Counter("lifeguard_chaos_faults_healed_total")
	r.mBarrier = opts.Obs.Counter("lifeguard_chaos_barriers_total")
	r.mViolation = func(inv Invariant) *obs.Counter {
		return opts.Obs.Counter("lifeguard_chaos_violations_total", obs.L("invariant", string(inv)))
	}
	return r, nil
}

// event is one runner action on the flattened timeline.
type event struct {
	at   time.Duration
	kind int // 0 inject, 1 heal, 2 check — also the same-time tiebreak
	f    Fault
}

// Run arms the baseline, plays the timeline, and finishes with an implicit
// final barrier (which also flags unhealed faults). The scheduler advances
// through RunUntil between actions, so monitors and repair systems wired
// onto the same clock interleave exactly as they would in production; a
// barrier may push virtual time past the next scripted instant while
// draining the control plane, in which case later actions apply as soon as
// the barrier completes (deterministically — the drain length is itself a
// function of the seed).
func (r *Runner) Run() (*Report, error) {
	rep := &Report{Start: r.tgt.Clk.Now()}

	// Arm: the baseline fingerprint is taken over a drained control plane.
	if !r.tgt.Eng.Converge(bgp.MaxConvergeSteps) {
		return nil, fmt.Errorf("chaos: control plane did not converge while arming")
	}
	r.chk.baseline = r.chk.fingerprint()
	r.chk.owners = hijack.TableFromEngine(r.tgt.Eng)
	rep.BaselineFingerprint = r.chk.baseline
	r.tgt.journal("arm", obs.F("fingerprint", fmt.Sprintf("%016x", r.chk.baseline)))

	// Script times are relative to the run start (arming may itself have
	// advanced the clock while draining).
	start := r.tgt.Clk.Now()
	var timeline []event
	for _, st := range r.script.Steps {
		if st.Check {
			rep.Checks++
			timeline = append(timeline, event{at: start + st.At, kind: 2})
			continue
		}
		rep.Faults++
		timeline = append(timeline, event{at: start + st.At, kind: 0, f: st.Fault})
		if st.For > 0 {
			timeline = append(timeline, event{at: start + st.At + st.For, kind: 1, f: st.Fault})
		}
	}
	// Heals before injects before checks at the same instant, original
	// order as the final tiebreak (stable sort): a zero-gap heal/reinject
	// of the same site must heal first, and a same-time check observes
	// the settled state.
	sort.SliceStable(timeline, func(i, j int) bool {
		if timeline[i].at != timeline[j].at {
			return timeline[i].at < timeline[j].at
		}
		order := func(k int) int { return [3]int{1, 0, 2}[k] }
		return order(timeline[i].kind) < order(timeline[j].kind)
	})

	for _, ev := range timeline {
		if ev.at > r.tgt.Clk.Now() {
			r.tgt.Clk.RunUntil(ev.at)
		}
		switch ev.kind {
		case 0:
			ev.f.Inject(r.tgt)
			r.active[ev.f] = true
			r.injected++
			r.mInject.Inc()
			r.tgt.journal("inject", obs.F("fault", ev.f))
		case 1:
			ev.f.Heal(r.tgt)
			delete(r.active, ev.f)
			r.healed++
			r.mHeal.Inc()
			r.tgt.journal("heal", obs.F("fault", ev.f))
		case 2:
			r.barrier(false)
		}
	}

	// Finish: the implicit final barrier, which additionally reports any
	// fault the script never healed.
	r.barrier(true)

	rep.Injected, rep.Healed, rep.Barriers = r.injected, r.healed, r.barriers
	rep.End = r.tgt.Clk.Now()
	rep.Violations = r.chk.violations
	for _, v := range rep.Violations {
		r.mViolation(v.Invariant).Inc()
	}
	r.tgt.journal("finish",
		obs.F("injected", rep.Injected), obs.F("healed", rep.Healed),
		obs.F("violations", len(rep.Violations)))
	return rep, nil
}

// barrier drains the control plane and runs the invariant suite. Loop and
// RIB checks always run; baseline, reachability, and origin authenticity
// only when the network should be healthy (zero active faults); the
// unhealed check only at the final barrier.
func (r *Runner) barrier(final bool) {
	r.barriers++
	r.mBarrier.Inc()
	before := len(r.chk.violations)
	if !r.tgt.Eng.Converge(bgp.MaxConvergeSteps) {
		r.chk.report(InvConvergence,
			fmt.Sprintf("control plane still busy after %d steps", bgp.MaxConvergeSteps))
	}
	r.chk.checkLoops()
	r.chk.checkRIB()
	if final {
		// Deterministic order: report unhealed faults sorted by their
		// canonical string, not map order.
		var unhealed []string
		for f := range r.active {
			unhealed = append(unhealed, f.String())
		}
		sort.Strings(unhealed)
		for _, s := range unhealed {
			r.chk.report(InvUnhealed, fmt.Sprintf("fault %q still active at end of run", s))
		}
	}
	if len(r.active) == 0 {
		r.chk.checkBaseline()
		r.chk.checkReach()
	}
	// Origin authenticity also runs at the final barrier even with faults
	// still active: an unhealed hijack is exactly the "hijacked state
	// outlives the run" condition the invariant exists to name (other
	// unhealed fault kinds reroute or drop but never forge origins, so
	// they cannot trip it).
	if len(r.active) == 0 || final {
		r.chk.checkOriginAuth()
	}
	r.tgt.journal("barrier",
		obs.F("final", final),
		obs.F("active", len(r.active)),
		obs.F("new_violations", len(r.chk.violations)-before))
}
