package lifeguard_test

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/core/remedy"
	"lifeguard/internal/obs"
)

// cutLink makes the chaos linkdown fault's calls: the a–b BGP session drops
// (both sides withdraw, the Internet re-converges — a visible failure,
// unlike InjectFailure's silent ones) and the data plane stops carrying
// packets across the link in either direction. The returned func heals it.
func cutLink(n *lifeguard.Network, a, b lifeguard.ASN) (heal func()) {
	n.Eng.SetAdjacencyDown(a, b, true)
	ab := n.InjectFailure(lifeguard.DropASLink(a, b))
	ba := n.InjectFailure(lifeguard.DropASLink(b, a))
	return func() {
		n.HealFailure(ab)
		n.HealFailure(ba)
		n.Eng.SetAdjacencyDown(a, b, false)
	}
}

// TestVisibleFailureSelfHealsWithoutPoisoning exercises the §4.2 decision
// policy end to end: a *visible* failure (BGP session cut) causes a brief
// convergence outage that BGP repairs on its own — LIFEGUARD detects it but
// must NOT poison, because by decision time the outage has healed.
func TestVisibleFailureSelfHealsWithoutPoisoning(t *testing.T) {
	n := fig2Network(t)
	target := n.RouterAddr(n.Hub(asE))
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:  asO,
		VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
		Targets: []netip.Addr{target},
	})
	sys.Start()
	n.Clk.RunFor(2 * time.Minute)

	// Cut the A–E session: E (and B's side of the world) must reconverge
	// onto the D–C path by itself.
	heal := cutLink(n, asA, asE)
	n.Clk.RunFor(30 * time.Minute)

	// The network healed itself: traffic flows again, and LIFEGUARD never
	// decided a repair, let alone poisoned.
	for _, o := range sys.Outages() {
		if o.End == 0 {
			t.Fatal("pair still down after BGP reconvergence")
		}
		if o.Decided != 0 {
			t.Fatalf("unexpected repair decision %v for a visible failure", o.Action)
		}
	}
	if sys.Remedy.Active() != nil {
		t.Fatalf("poisoned a self-healing failure: %+v", sys.Remedy.Active())
	}

	// Restore the session; the world returns to the original routes.
	heal()
	if !n.Converge() {
		t.Fatal("no convergence after restore")
	}
	r, ok := n.Eng.BestRoute(asE, lifeguard.ProductionPrefix(asO))
	if !ok {
		t.Fatal("E lost the route")
	}
	if r.Path[0] != asA {
		t.Fatalf("E should return to the A path, got %v", r.Path)
	}
	sys.Stop()
}

// TestVisibleFailureOutageIsShort quantifies the contrast the paper draws:
// convergence outages last ~minutes (self-healing), silent failures last
// until someone intervenes.
func TestVisibleFailureOutageIsShort(t *testing.T) {
	n := fig2Network(t)
	target := n.RouterAddr(n.Hub(asE))
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:            asO,
		VPs:               []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
		Targets:           []netip.Addr{target},
		DisableAutoRepair: true, // observe both failure classes untreated
	})
	sys.Start()
	n.Clk.RunFor(2 * time.Minute)

	// Visible failure: cut and leave it cut; BGP routes around it.
	cutLink(n, asA, asE)
	n.Clk.RunFor(30 * time.Minute)
	var visibleDown time.Duration
	for _, o := range sys.Outages() {
		if o.End == 0 {
			t.Fatal("visible failure did not self-heal")
		}
		visibleDown += o.End - o.Start
	}
	if visibleDown > 10*time.Minute {
		t.Fatalf("convergence outage lasted %v — should be minutes at most", visibleDown)
	}

	// Silent failure: inject and wait the same 30 minutes; without
	// LIFEGUARD it never heals.
	seen := len(sys.Outages())
	n.InjectFailure(lifeguard.BlackholeASTowards(asD, lifeguard.Block(asO)))
	n.Clk.RunFor(30 * time.Minute)
	silent := sys.Outages()[seen:]
	if len(silent) == 0 {
		t.Fatal("silent failure not detected")
	}
	for _, o := range silent {
		if o.End != 0 {
			t.Fatalf("silent failure 'healed' without intervention: %+v", o.Outage)
		}
	}
}

// TestStopStartLifecycle pins the re-entrant lifecycle contract the
// session refactor made reachable: Stop before Start is a no-op, Stop and
// Start are idempotent, monitoring resumes after a Stop/Start cycle, and a
// poison installed before the Stop survives it — Start must not clobber an
// active repair with a fresh baseline announcement.
func TestStopStartLifecycle(t *testing.T) {
	n := fig2Network(t)
	target := n.RouterAddr(n.Hub(asE))
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:  asO,
		VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
		Targets: []netip.Addr{target},
	})

	sys.Stop() // Stop before Start: well-defined no-op
	sys.Start()
	sys.Start() // idempotent
	n.Clk.RunFor(2 * time.Minute)
	if n.Prober.Sent == 0 {
		t.Fatal("no probes sent while started")
	}

	sys.Stop()
	sys.Stop() // idempotent
	sent := n.Prober.Sent
	n.Clk.RunFor(5 * time.Minute)
	if n.Prober.Sent != sent {
		t.Fatalf("monitor kept running after Stop: %d probes sent while stopped", n.Prober.Sent-sent)
	}

	// Start after Stop resumes detection end to end.
	sys.Start()
	n.Clk.RunFor(time.Minute)
	n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
	n.Clk.RunFor(15 * time.Minute)
	if logged(sys, lifeguard.EventRepair) == 0 {
		t.Fatal("no repair after Stop/Start cycle")
	}
	if sys.Remedy.Active() == nil {
		t.Fatal("expected an active poison")
	}

	// A Stop/Start cycle with the poison active must preserve it: E keeps
	// routing around A, and no fresh baseline overwrote the poison.
	sys.Stop()
	sys.Start()
	n.Converge()
	if sys.Remedy.Active() == nil {
		t.Fatal("restart dropped the active poison")
	}
	r, ok := n.Eng.BestRoute(asE, lifeguard.ProductionPrefix(asO))
	if !ok || r.Path[0] != asD {
		t.Fatalf("restart clobbered the poisoned announcement: E routes %+v", r)
	}
}

// The two-diamond world: Fig. 2's diamond twice below the origin's one
// provider B, one copy per target.
const (
	dA1, dC1, dD1, dE1 lifeguard.ASN = 31, 41, 51, 61
	dA2, dC2, dD2, dE2 lifeguard.ASN = 32, 42, 52, 62
)

// twoDiamonds assembles the two-diamond world, with metrics.
func twoDiamonds(t *testing.T) *lifeguard.Network {
	t.Helper()
	tb := lifeguard.NewTopologyBuilder()
	for _, asn := range []lifeguard.ASN{asO, asB, dA1, dC1, dD1, dE1, dA2, dC2, dD2, dE2} {
		tb.AddAS(asn, "")
		tb.AddRouter(asn, "")
	}
	for _, r := range [][2]lifeguard.ASN{
		{asO, asB},
		{asB, dA1}, {asB, dC1}, {dC1, dD1}, {dA1, dE1}, {dD1, dE1},
		{asB, dA2}, {asB, dC2}, {dC2, dD2}, {dA2, dE2}, {dD2, dE2},
	} {
		tb.Provider(r[0], r[1])
		tb.ConnectAS(r[0], r[1])
	}
	// The peering lets the helper vantage point in C1 reach E2.
	tb.Peer(dE1, dE2)
	tb.ConnectAS(dE1, dE2)
	top, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := lifeguard.AssembleNetwork(top, lifeguard.NetworkOptions{Seed: 11, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestOutageBehindAnotherPoisonIsDecidedAgain pins the one-repair-at-a-time
// hand-over: in the two-diamond world both near-side transits blackhole the
// reverse path at once. The first pair to decide poisons its transit; the
// second is told AlreadyActive. When the first failure heals and its poison
// is withdrawn, the second pair — still down behind its own failure — must
// get its own poison rather than be dropped after that single decision.
func TestOutageBehindAnotherPoisonIsDecidedAgain(t *testing.T) {
	n := twoDiamonds(t)
	t1, t2 := n.RouterAddr(n.Hub(dE1)), n.RouterAddr(n.Hub(dE2))
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:  asO,
		VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(dC1)},
		Targets: []netip.Addr{t1, t2},
	})
	sys.Start()
	n.Clk.RunFor(3 * time.Minute)

	f1 := n.InjectFailure(lifeguard.BlackholeASTowards(dA1, lifeguard.Block(asO)))
	n.InjectFailure(lifeguard.BlackholeASTowards(dA2, lifeguard.Block(asO)))
	n.Clk.RunFor(20 * time.Minute)

	if r := sys.Remedy.Active(); r == nil || r.Avoided != dA1 {
		t.Fatalf("active repair = %+v, want the first target's poison of AS%d", r, dA1)
	}
	// down reports whether the second pair is in an outage.
	down := func() bool {
		for _, o := range sys.Outages() {
			if o.VP == n.Hub(asO) && o.Target == t2 && o.End == 0 {
				return true
			}
		}
		return false
	}
	if !down() {
		t.Fatal("second pair should still be down behind its own failure")
	}

	// The first failure heals; the sentinel withdraws its poison, and the
	// waiting pair is decided again.
	n.HealFailure(f1)
	n.Clk.RunFor(20 * time.Minute)

	var actions []remedy.Action
	for _, e := range sys.History {
		if e.Kind == lifeguard.EventRepair && e.Target == t2 {
			actions = append(actions, e.Action)
		}
	}
	// One event per distinct verdict, however many rounds the wait lasted.
	if len(actions) != 2 || actions[0] != remedy.AlreadyActive || actions[1] != remedy.Poisoned {
		t.Fatalf("second pair's repair decisions = %v, want [already-active poisoned]", actions)
	}
	if r := sys.Remedy.Active(); r == nil || r.Avoided != dA2 {
		t.Fatalf("active repair = %+v, want a poison of AS%d", r, dA2)
	}
	if down() {
		t.Fatal("second pair did not recover once its own poison went in")
	}
}

// TestEventKindStringRoundTrip guards the journal vocabulary: every
// defined kind has a unique stable name, and unknown values render as
// "eventkind(N)" instead of aliasing to one opaque string — the enum grows
// with the session lifecycle, and consumers must be able to tell new kinds
// apart.
func TestEventKindStringRoundTrip(t *testing.T) {
	all := []lifeguard.EventKind{
		lifeguard.EventOutage, lifeguard.EventIsolated, lifeguard.EventRepair,
		lifeguard.EventUnpoison, lifeguard.EventRecovered,
		lifeguard.EventControlCrash, lifeguard.EventControlRestore,
		lifeguard.EventFailsafeEnter, lifeguard.EventFailsafeExit,
	}
	seen := make(map[string]lifeguard.EventKind, len(all))
	for _, k := range all {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "eventkind(") {
			t.Fatalf("kind %d has no proper name: %q", int(k), s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("kinds %d and %d share the name %q", int(prev), int(k), s)
		}
		seen[s] = k
	}
	// The contiguous enum ends exactly where the named kinds do.
	if next := lifeguard.EventFailsafeExit + 1; next.String() != "eventkind(9)" {
		t.Fatalf("first unknown kind renders %q, want eventkind(9)", next.String())
	}
	for _, k := range []lifeguard.EventKind{99, -3} {
		want := "eventkind(" + intString(int(k)) + ")"
		if got := k.String(); got != want {
			t.Fatalf("EventKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func intString(n int) string {
	if n < 0 {
		return "-" + intString(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return intString(n/10) + string(rune('0'+n%10))
}
