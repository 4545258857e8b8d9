// Package chaos is a deterministic, simclock-driven fault-injection engine
// for the LIFEGUARD reproduction. It turns the hand-placed static failures
// of earlier test code into *scheduled timelines*: a script of reversible
// faults (link cuts, unidirectional loss, probabilistic packet loss, BGP
// session resets, router crash/restart, control-plane slowdowns) injected
// and healed at scripted virtual times, with an invariant checker run at
// barriers (every AS forwards, longest match included, on the route
// refsolve computes; sentinel reachability; "all faults healed ⇒ back to
// baseline").
//
// Everything is deterministic under the repo-wide contracts: faults fire at
// virtual times on the shared simclock.Scheduler, the stochastic script
// generator consumes only injected seeds (through internal/outage's
// calibrated distributions), and probabilistic loss delegates to the data
// plane's pure-hash verdicts — so one seed replays one timeline, byte for
// byte, at any parallelism.
package chaos

import (
	"fmt"

	"lifeguard/internal/bgp"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// Target is the simulated internetwork a chaos run mutates. It mirrors the
// facade's Network bundle without importing it (the root package re-exports
// a constructor), so experiments and tests can aim chaos at hand-built rigs
// too. Journal may be nil (events are then discarded). Control is optional:
// only targets that host LIFEGUARD sessions (the facade's Rig) have
// control planes to crash, and only the crashcontrol fault needs it.
type Target struct {
	Top     *topo.Topology
	Clk     *simclock.Scheduler
	Eng     *bgp.Engine
	Plane   *dataplane.Plane
	Journal *obs.Journal
	Control ControlPlane
}

// ControlPlane lets chaos crash and restore a tenant's LIFEGUARD control
// plane — monitor, isolation, and repair engine — while the simulated
// internetwork (and the tenant's announced routes) keeps running. The
// facade's Rig implements it; restart semantics (graceful or not) are the
// session's own policy, not the fault's.
type ControlPlane interface {
	// HasControl reports whether origin hosts a crashable control plane.
	HasControl(origin topo.ASN) bool
	// CrashControl takes origin's control plane down.
	CrashControl(origin topo.ASN)
	// RestoreControl brings it back up.
	RestoreControl(origin topo.ASN)
}

// validate reports the first missing mandatory component.
func (t *Target) validate() error {
	switch {
	case t == nil:
		return fmt.Errorf("chaos: nil target")
	case t.Top == nil:
		return fmt.Errorf("chaos: target has no topology")
	case t.Clk == nil:
		return fmt.Errorf("chaos: target has no clock")
	case t.Eng == nil:
		return fmt.Errorf("chaos: target has no BGP engine")
	case t.Plane == nil:
		return fmt.Errorf("chaos: target has no data plane")
	case t.Eng.Dampening():
		return fmt.Errorf("chaos: target runs route-flap dampening, which refsolve does not model")
	}
	return nil
}

// journal records a chaos event when the target has a journal attached.
func (t *Target) journal(kind string, fields ...obs.Field) {
	if t.Journal.Enabled() {
		t.Journal.Record(t.Clk.Now(), "chaos", kind, fields...)
	}
}
