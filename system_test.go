package lifeguard_test

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/core/remedy"
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

	// The network healed itself: traffic flows again...
	if sys.Monitor.Down(n.Hub(asO), target) {
		t.Fatal("pair still down after BGP reconvergence")
	}
	// ...and LIFEGUARD never poisoned (no repair events with a poison,
	// and nothing active).
	if sys.Remedy.Active() != nil {
		t.Fatalf("poisoned a self-healing failure: %+v", sys.Remedy.Active())
	}
	for _, e := range sys.EventsOfKind(lifeguard.EventRepair) {
		t.Fatalf("unexpected repair decision %v for a visible failure", e.Action)
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
	for _, e := range sys.EventsOfKind(lifeguard.EventOutage) {
		if e.Outage.End == 0 {
			t.Fatal("visible failure did not self-heal")
		}
		visibleDown += e.Outage.End - e.Outage.Start
	}
	if visibleDown > 10*time.Minute {
		t.Fatalf("convergence outage lasted %v — should be minutes at most", visibleDown)
	}

	// Silent failure: inject and wait the same 30 minutes; without
	// LIFEGUARD it never heals.
	seen := len(sys.EventsOfKind(lifeguard.EventOutage))
	n.InjectFailure(lifeguard.BlackholeASTowards(asD, lifeguard.Block(asO)))
	n.Clk.RunFor(30 * time.Minute)
	silent := sys.EventsOfKind(lifeguard.EventOutage)[seen:]
	if len(silent) == 0 {
		t.Fatal("silent failure not detected")
	}
	for _, e := range silent {
		if e.Outage.End != 0 {
			t.Fatalf("silent failure 'healed' without intervention: %+v", e.Outage)
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
	if len(sys.EventsOfKind(lifeguard.EventRepair)) == 0 {
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

// TestOutageBehindAnotherPoisonIsDecidedAgain pins the one-repair-at-a-time
// hand-over: two Fig. 2 diamonds hang off the origin's provider, and both
// near-side transits blackhole the reverse path at once. The first pair to
// decide poisons its transit; the second is told AlreadyActive. When the
// first failure heals and its poison is withdrawn, the second pair — still
// down behind its own failure — must get its own poison rather than be
// dropped after that single decision.
func TestOutageBehindAnotherPoisonIsDecidedAgain(t *testing.T) {
	const (
		o, b           lifeguard.ASN = 10, 20
		a1, c1, d1, e1 lifeguard.ASN = 31, 41, 51, 61
		a2, c2, d2, e2 lifeguard.ASN = 32, 42, 52, 62
	)
	tb := lifeguard.NewTopologyBuilder()
	for _, asn := range []lifeguard.ASN{o, b, a1, c1, d1, e1, a2, c2, d2, e2} {
		tb.AddAS(asn, "")
		tb.AddRouter(asn, "")
	}
	for _, r := range [][2]lifeguard.ASN{
		{o, b},
		{b, a1}, {b, c1}, {c1, d1}, {a1, e1}, {d1, e1},
		{b, a2}, {b, c2}, {c2, d2}, {a2, e2}, {d2, e2},
	} {
		tb.Provider(r[0], r[1])
		tb.ConnectAS(r[0], r[1])
	}
	// The peering lets the helper vantage point in C1 reach E2.
	tb.Peer(e1, e2)
	tb.ConnectAS(e1, e2)
	top, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := lifeguard.AssembleNetwork(top, lifeguard.NetworkOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := n.RouterAddr(n.Hub(e1)), n.RouterAddr(n.Hub(e2))
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:  o,
		VPs:     []lifeguard.RouterID{n.Hub(o), n.Hub(c1)},
		Targets: []netip.Addr{t1, t2},
	})
	sys.Start()
	n.Clk.RunFor(3 * time.Minute)

	f1 := n.InjectFailure(lifeguard.BlackholeASTowards(a1, lifeguard.Block(o)))
	n.InjectFailure(lifeguard.BlackholeASTowards(a2, lifeguard.Block(o)))
	n.Clk.RunFor(20 * time.Minute)

	if r := sys.Remedy.Active(); r == nil || r.Avoided != a1 {
		t.Fatalf("active repair = %+v, want the first target's poison of AS%d", r, a1)
	}
	if !sys.Monitor.Down(n.Hub(o), t2) {
		t.Fatal("second pair should still be down behind its own failure")
	}

	// The first failure heals; the sentinel withdraws its poison, and the
	// waiting pair is decided again.
	n.HealFailure(f1)
	n.Clk.RunFor(20 * time.Minute)

	var actions []remedy.Action
	for _, e := range sys.EventsOfKind(lifeguard.EventRepair) {
		if e.Target == t2 {
			actions = append(actions, e.Action)
		}
	}
	// One event per distinct verdict, however many rounds the wait lasted.
	if len(actions) != 2 || actions[0] != remedy.AlreadyActive || actions[1] != remedy.Poisoned {
		t.Fatalf("second pair's repair decisions = %v, want [already-active poisoned]", actions)
	}
	if r := sys.Remedy.Active(); r == nil || r.Avoided != a2 {
		t.Fatalf("active repair = %+v, want a poison of AS%d", r, a2)
	}
	if sys.Monitor.Down(n.Hub(o), t2) {
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
