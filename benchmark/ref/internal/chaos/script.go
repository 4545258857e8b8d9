package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Step is one timeline entry: either a fault injected at At and healed at
// At+For, or (when Check is true) an invariant-checker barrier.
type Step struct {
	// At is when the step fires, in virtual time relative to the start of
	// the run (the target's clock usually isn't at zero — initial BGP
	// convergence already consumed virtual time).
	At time.Duration
	// Check marks a barrier step: the runner drains the control plane and
	// runs the invariant checker instead of injecting anything.
	Check bool
	// Fault is the fault to inject (nil on barrier steps).
	Fault Fault
	// For is how long the fault stays injected before the runner heals
	// it. Zero or negative means the fault is never healed — the final
	// barrier then reports an unhealed-fault violation, which is exactly
	// the lever negative tests use.
	For time.Duration
}

// Script is an ordered fault/barrier timeline. Build one by hand, with
// Parse (text form), or with GenerateScript (seeded, outage-calibrated).
type Script struct {
	Steps []Step
}

// String renders the canonical text form: one step per line, sorted by
// (time, kind), faults in their Fault.String() syntax. Parse round-trips
// it, and the byte-identity contracts compare reports built from it.
func (s *Script) String() string {
	steps := append([]Step(nil), s.Steps...)
	sortSteps(steps)
	var b strings.Builder
	for _, st := range steps {
		if st.Check {
			fmt.Fprintf(&b, "at %v check\n", st.At)
			continue
		}
		if st.For > 0 {
			fmt.Fprintf(&b, "at %v for %v %s\n", st.At, st.For, st.Fault)
		} else {
			fmt.Fprintf(&b, "at %v %s\n", st.At, st.Fault)
		}
	}
	return b.String()
}

// Validate checks every fault against the target; the first error wins.
func (s *Script) Validate(t *Target) error {
	if err := t.validate(); err != nil {
		return err
	}
	for i, st := range s.Steps {
		if st.Check {
			continue
		}
		if st.Fault == nil {
			return fmt.Errorf("chaos: step %d has neither fault nor check", i)
		}
		if err := st.Fault.Validate(t); err != nil {
			return fmt.Errorf("chaos: step %d (%s): %w", i, st.Fault, err)
		}
	}
	return nil
}

// End returns the virtual time of the last scheduled action (latest of all
// step times and heal times).
func (s *Script) End() time.Duration {
	var end time.Duration
	for _, st := range s.Steps {
		t := st.At
		if !st.Check && st.For > 0 {
			t += st.For
		}
		if t > end {
			end = t
		}
	}
	return end
}

// sortSteps orders steps by time, barriers after faults at the same
// instant (a same-time check observes that instant's injections), with the
// original order as the final tiebreak so sorting is deterministic.
func sortSteps(steps []Step) {
	sort.SliceStable(steps, func(i, j int) bool {
		if steps[i].At != steps[j].At {
			return steps[i].At < steps[j].At
		}
		return !steps[i].Check && steps[j].Check
	})
}
