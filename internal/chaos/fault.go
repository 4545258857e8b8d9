package chaos

import (
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"lifeguard/internal/bgp"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/topo"
)

// Fault is one reversible failure. Inject applies it to the target and Heal
// undoes it; both are driven by the Runner at scripted virtual times. A
// fault value carries its own revert state (failure IDs, captured origin
// announcements), so each value belongs to one script and must not be
// injected twice without an intervening Heal.
//
// String returns the fault in canonical script syntax — Parse(String())
// round-trips — which is also how faults are journaled and reported.
type Fault interface {
	// Kind is the script keyword ("linkdown", "oneway", ...).
	Kind() string
	// String renders the canonical script form, e.g. "linkdown 3 7".
	String() string
	// Validate checks the fault is applicable to the target's topology
	// before the run starts, so a bad script fails fast and atomically.
	Validate(t *Target) error
	// Inject applies the fault.
	Inject(t *Target)
	// Heal reverts it.
	Heal(t *Target)
}

// LinkDown cuts the A–B adjacency completely: the BGP session drops (both
// sides withdraw routes learned over it — a failure the protocol *sees*)
// and the data plane stops carrying packets across the link in either
// direction. The LIFEGUARD-relevant part is the healing churn: routes
// converge away and back.
type LinkDown struct {
	A, B topo.ASN

	ids [2]dataplane.FailureID
}

// Kind implements Fault.
func (f *LinkDown) Kind() string { return "linkdown" }

// String implements Fault.
func (f *LinkDown) String() string { return fmt.Sprintf("linkdown %d %d", f.A, f.B) }

// Validate implements Fault.
func (f *LinkDown) Validate(t *Target) error { return requireAdjacent(t, f.A, f.B) }

// Inject implements Fault.
func (f *LinkDown) Inject(t *Target) {
	t.Eng.SetAdjacencyDown(f.A, f.B, true)
	f.ids[0] = t.Plane.AddFailure(dataplane.DropASLink(f.A, f.B))
	f.ids[1] = t.Plane.AddFailure(dataplane.DropASLink(f.B, f.A))
}

// Heal implements Fault.
func (f *LinkDown) Heal(t *Target) {
	t.Plane.RemoveFailure(f.ids[0])
	t.Plane.RemoveFailure(f.ids[1])
	t.Eng.SetAdjacencyDown(f.A, f.B, false)
}

// OneWayLoss silently drops all traffic crossing the From→To direction of
// an adjacency while the reverse direction keeps working — the asymmetric
// failure mode of PAPER.md §4 that makes isolation hard: BGP sessions stay
// up, so only data-plane measurement can see it.
type OneWayLoss struct {
	From, To topo.ASN

	id dataplane.FailureID
}

// Kind implements Fault.
func (f *OneWayLoss) Kind() string { return "oneway" }

// String implements Fault.
func (f *OneWayLoss) String() string { return fmt.Sprintf("oneway %d %d", f.From, f.To) }

// Validate implements Fault.
func (f *OneWayLoss) Validate(t *Target) error { return requireAdjacent(t, f.From, f.To) }

// Inject implements Fault.
func (f *OneWayLoss) Inject(t *Target) {
	f.id = t.Plane.AddFailure(dataplane.DropASLink(f.From, f.To))
}

// Heal implements Fault.
func (f *OneWayLoss) Heal(t *Target) { t.Plane.RemoveFailure(f.id) }

// PacketLoss makes AS drop each forwarded packet independently with
// probability Prob. The verdict is the data plane's pure hash of
// (Seed, packet sequence), so a run replays identically (see
// dataplane.Rule.DropProb).
type PacketLoss struct {
	AS   topo.ASN
	Prob float64
	Seed uint64

	id dataplane.FailureID
}

// Kind implements Fault.
func (f *PacketLoss) Kind() string { return "loss" }

// String implements Fault.
func (f *PacketLoss) String() string {
	return fmt.Sprintf("loss %d %s %d", f.AS, strconv.FormatFloat(f.Prob, 'g', -1, 64), f.Seed)
}

// Validate implements Fault.
func (f *PacketLoss) Validate(t *Target) error {
	if err := requireAS(t, f.AS); err != nil {
		return err
	}
	if !(f.Prob > 0 && f.Prob < 1) { // written so that NaN fails too
		return fmt.Errorf("chaos: loss probability %v outside (0, 1)", f.Prob)
	}
	return nil
}

// Inject implements Fault.
func (f *PacketLoss) Inject(t *Target) {
	f.id = t.Plane.AddFailure(dataplane.LossyAS(f.AS, f.Prob, f.Seed))
}

// Heal implements Fault.
func (f *PacketLoss) Heal(t *Target) { t.Plane.RemoveFailure(f.id) }

// SessionReset fails only the BGP session between A and B; the data plane
// underneath keeps forwarding whatever routes remain. This is the visible,
// self-healing failure class that dominates Fig. 1's event count.
type SessionReset struct {
	A, B topo.ASN
}

// Kind implements Fault.
func (f *SessionReset) Kind() string { return "sessionreset" }

// String implements Fault.
func (f *SessionReset) String() string { return fmt.Sprintf("sessionreset %d %d", f.A, f.B) }

// Validate implements Fault.
func (f *SessionReset) Validate(t *Target) error { return requireAdjacent(t, f.A, f.B) }

// Inject implements Fault.
func (f *SessionReset) Inject(t *Target) { t.Eng.SetAdjacencyDown(f.A, f.B, true) }

// Heal implements Fault.
func (f *SessionReset) Heal(t *Target) { t.Eng.SetAdjacencyDown(f.A, f.B, false) }

// RouterCrash crashes AS's routing process: every locally-originated prefix
// is withdrawn (captured first, for the restart) and the AS blackholes all
// transit traffic while down. Heal restarts it — the captured announcement
// set is replayed verbatim, exercising the withdraw-all / re-announce
// convergence path.
type RouterCrash struct {
	AS topo.ASN

	saved []bgp.OriginAnnouncement
	id    dataplane.FailureID
}

// Kind implements Fault.
func (f *RouterCrash) Kind() string { return "crash" }

// String implements Fault.
func (f *RouterCrash) String() string { return fmt.Sprintf("crash %d", f.AS) }

// Validate implements Fault.
func (f *RouterCrash) Validate(t *Target) error { return requireAS(t, f.AS) }

// Inject implements Fault.
func (f *RouterCrash) Inject(t *Target) {
	f.saved = t.Eng.Origins(f.AS)
	for _, o := range f.saved {
		t.Eng.Withdraw(f.AS, o.Prefix)
	}
	f.id = t.Plane.AddFailure(dataplane.BlackholeAS(f.AS))
}

// Heal implements Fault.
func (f *RouterCrash) Heal(t *Target) {
	t.Plane.RemoveFailure(f.id)
	for _, o := range f.saved {
		t.Eng.Announce(f.AS, o.Prefix, o.Config)
	}
	f.saved = nil
}

// ControlCrash crashes the LIFEGUARD control plane of the session whose
// origin is AS — monitor rounds stop, isolation and repair decisions are
// suspended — while the simulated internetwork keeps forwarding and the
// session's announced routes stay installed. Heal restores the control
// plane; whether the restart is graceful (stale-route retention + deferred
// re-announce) or a full withdraw/re-announce is the session's configured
// policy. This is the OpenPERouter-style lifecycle decoupling fault: it
// exercises the contract that the data plane survives a control restart.
type ControlCrash struct {
	AS topo.ASN
}

// Kind implements Fault.
func (f *ControlCrash) Kind() string { return "crashcontrol" }

// String implements Fault.
func (f *ControlCrash) String() string { return fmt.Sprintf("crashcontrol %d", f.AS) }

// Validate implements Fault.
func (f *ControlCrash) Validate(t *Target) error {
	if err := requireAS(t, f.AS); err != nil {
		return err
	}
	if t.Control == nil {
		return fmt.Errorf("chaos: crashcontrol %d: target has no control plane hooks", f.AS)
	}
	if !t.Control.HasControl(f.AS) {
		return fmt.Errorf("chaos: crashcontrol %d: no session with that origin", f.AS)
	}
	return nil
}

// Inject implements Fault.
func (f *ControlCrash) Inject(t *Target) { t.Control.CrashControl(f.AS) }

// Heal implements Fault.
func (f *ControlCrash) Heal(t *Target) { t.Control.RestoreControl(f.AS) }

// UpdateDelay slows BGP propagation across the A–B adjacency by Delay per
// message in both directions — a congested or deprioritized control plane.
// Routing stays correct; convergence after other events just takes longer,
// widening the window in which LIFEGUARD must act on stale paths.
type UpdateDelay struct {
	A, B  topo.ASN
	Delay time.Duration
}

// Kind implements Fault.
func (f *UpdateDelay) Kind() string { return "delay" }

// String implements Fault.
func (f *UpdateDelay) String() string { return fmt.Sprintf("delay %d %d %v", f.A, f.B, f.Delay) }

// Validate implements Fault.
func (f *UpdateDelay) Validate(t *Target) error {
	if f.Delay <= 0 {
		return fmt.Errorf("chaos: delay %v must be positive", f.Delay)
	}
	return requireAdjacent(t, f.A, f.B)
}

// Inject implements Fault.
func (f *UpdateDelay) Inject(t *Target) { t.Eng.SetLinkExtraDelay(f.A, f.B, f.Delay) }

// Heal implements Fault.
func (f *UpdateDelay) Heal(t *Target) { t.Eng.SetLinkExtraDelay(f.A, f.B, 0) }

// BlackholeTowards makes AS silently drop traffic it forwards toward Dst —
// the canonical LIFEGUARD failure: a partial, destination-specific
// unidirectional blackhole inside a transit AS, invisible to BGP.
type BlackholeTowards struct {
	AS  topo.ASN
	Dst netip.Prefix

	id dataplane.FailureID
}

// Kind implements Fault.
func (f *BlackholeTowards) Kind() string { return "blackhole" }

// String implements Fault.
func (f *BlackholeTowards) String() string { return fmt.Sprintf("blackhole %d %v", f.AS, f.Dst) }

// Validate implements Fault.
func (f *BlackholeTowards) Validate(t *Target) error {
	if !f.Dst.IsValid() {
		return fmt.Errorf("chaos: blackhole %d: invalid destination prefix", f.AS)
	}
	return requireAS(t, f.AS)
}

// Inject implements Fault.
func (f *BlackholeTowards) Inject(t *Target) {
	f.id = t.Plane.AddFailure(dataplane.BlackholeASTowards(f.AS, f.Dst))
}

// Heal implements Fault.
func (f *BlackholeTowards) Heal(t *Target) { t.Plane.RemoveFailure(f.id) }

func requireAS(t *Target, asn topo.ASN) error {
	if t.Top.AS(asn) == nil {
		return fmt.Errorf("chaos: AS %d not in topology", asn)
	}
	return nil
}

func requireAdjacent(t *Target, a, b topo.ASN) error {
	if err := requireAS(t, a); err != nil {
		return err
	}
	if err := requireAS(t, b); err != nil {
		return err
	}
	if !t.Top.Adjacent(a, b) {
		return fmt.Errorf("chaos: ASes %d and %d are not adjacent", a, b)
	}
	return nil
}
