package remedy_test

import (
	"testing"
	"time"

	"lifeguard/internal/core/isolation"
	"lifeguard/internal/core/remedy"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/nettest"
	"lifeguard/internal/topo"
)

func newController(t *testing.T, n *nettest.Net) *remedy.Controller {
	t.Helper()
	c := remedy.New(n.Eng, n.Prober, n.Clk, remedy.Config{Origin: nettest.O})
	c.AnnounceBaseline()
	n.Converge(t)
	return c
}

func TestBaselineAnnouncesPrependedPatterns(t *testing.T) {
	n := nettest.Fig2(t)
	c := newController(t, n)
	prod, sentinel := c.Prefixes()
	if prod != topo.ProductionPrefix(nettest.O) || sentinel != topo.SentinelPrefix(nettest.O) {
		t.Fatalf("prefixes %v, %v; want the address plan's production /24 and sentinel /23", prod, sentinel)
	}
	r, ok := n.Eng.BestRoute(nettest.B, prod)
	if !ok {
		t.Fatal("B has no production route")
	}
	if !r.Path.Equal(topo.Path{nettest.O, nettest.O, nettest.O}) {
		t.Fatalf("B sees %v, want the O-O-O baseline", r.Path)
	}
	if _, ok := n.Eng.BestRoute(nettest.F, sentinel); !ok {
		t.Fatal("sentinel not propagated")
	}
}

func TestPoisonReroutesAndSentinelUnpoisons(t *testing.T) {
	n := nettest.Fig2(t)
	c := newController(t, n)
	prod, sentinel := c.Prefixes()

	// A silently blackholes everything toward O's address space.
	fid := n.Plane.AddFailure(dataplane.BlackholeASTowards(nettest.A, topo.Block(nettest.O)))

	victim := n.Top.Router(n.Hub(nettest.E)).Addr
	rep := c.Poison(nettest.A, victim)
	n.Converge(t)

	// E now reaches O around A; captive F lost the production route but
	// still holds the sentinel.
	rE, ok := n.Eng.BestRoute(nettest.E, prod)
	if !ok || rE.Path[0] != nettest.D {
		t.Fatalf("E production route = %v, want via D", rE)
	}
	if _, ok := n.Eng.BestRoute(nettest.F, prod); ok {
		t.Fatal("captive F should lose the production route")
	}
	if _, ok := n.Eng.BestRoute(nettest.F, sentinel); !ok {
		t.Fatal("F must keep the sentinel (Backup Property)")
	}

	// While the failure persists, sentinel checks keep the poison.
	n.Clk.RunFor(10 * time.Minute)
	if c.Active() == nil {
		t.Fatal("unpoisoned while the failure persists")
	}
	if rep.SentinelChecks == 0 {
		t.Fatal("sentinel never probed")
	}

	// Heal the failure: the next sentinel check reverts to baseline.
	n.Plane.RemoveFailure(fid)
	var done bool
	c.OnUnpoison = func(r *remedy.Repair) { done = true }
	n.Clk.RunFor(5 * time.Minute)
	if !done || c.Active() != nil {
		t.Fatal("poison not removed after healing")
	}
	n.Converge(t)
	rE, _ = n.Eng.BestRoute(nettest.E, prod)
	if rE.Path[0] != nettest.A {
		t.Fatalf("E should return to the A path, got %v", rE.Path)
	}
	if rep.Ended == 0 || rep.Ended <= rep.Started {
		t.Fatalf("repair window not closed: %+v", rep)
	}
}

func TestDecideAndRepairPolicy(t *testing.T) {
	n := nettest.Fig2(t)
	c := newController(t, n)
	victimE := n.Top.Router(n.Hub(nettest.E)).Addr
	now := n.Clk.Now()

	mkRep := func(blamed topo.ASN) *isolation.Report {
		return &isolation.Report{Blamed: blamed, Target: victimE, Direction: isolation.Reverse}
	}

	if got := c.DecideAndRepair(&isolation.Report{Healed: true}, now); got != remedy.NoFailure {
		t.Fatalf("healed -> %v", got)
	}
	if got := c.DecideAndRepair(mkRep(nettest.A), now); got != remedy.TooYoung {
		t.Fatalf("fresh outage -> %v, want too-young", got)
	}
	n.Clk.RunFor(6 * time.Minute)
	if got := c.DecideAndRepair(mkRep(nettest.O), now); got != remedy.NotPoisonable {
		t.Fatalf("origin blame -> %v", got)
	}
	if got := c.DecideAndRepair(mkRep(nettest.E), now); got != remedy.NotPoisonable {
		t.Fatalf("victim-AS blame -> %v", got)
	}
	// F is captive behind A: no alternate path around A exists for it.
	victimF := n.Top.Router(n.Hub(nettest.F)).Addr
	repF := &isolation.Report{Blamed: nettest.A, Target: victimF}
	if got := c.DecideAndRepair(repF, now); got != remedy.NoAlternate {
		t.Fatalf("captive victim -> %v, want no-alternate", got)
	}
	// E has the D-C-B path: poison.
	if got := c.DecideAndRepair(mkRep(nettest.A), now); got != remedy.Poisoned {
		t.Fatalf("eligible repair -> %v, want poisoned", got)
	}
	if got := c.DecideAndRepair(mkRep(nettest.A), now); got != remedy.AlreadyActive {
		t.Fatalf("repeat repair -> %v, want already-active", got)
	}
	if c.Active() == nil || c.Active().Avoided != nettest.A {
		t.Fatalf("active repair = %+v", c.Active())
	}
	if len(c.History) != 1 {
		t.Fatalf("history = %d entries", len(c.History))
	}
}

func TestPoisonPatternShape(t *testing.T) {
	n := nettest.Fig2(t)
	c := newController(t, n)
	// Without a live failure the first sentinel check un-poisons, and
	// whether that lands before or after convergence is an rng accident.
	n.Plane.AddFailure(dataplane.BlackholeASTowards(nettest.A, topo.Block(nettest.O)))
	c.Poison(nettest.A, n.Top.Router(n.Hub(nettest.E)).Addr)
	n.Converge(t)
	prod, _ := c.Prefixes()
	r, ok := n.Eng.BestRoute(nettest.B, prod)
	if !ok {
		t.Fatal("B lost the route")
	}
	want := topo.Path{nettest.O, nettest.A, nettest.O}
	if !r.Path.Equal(want) {
		t.Fatalf("B sees %v, want %v (same length as baseline)", r.Path, want)
	}
}

// TestSelectivePoisoning reproduces Fig. 3: the origin has two providers
// with disjoint paths to A; poisoning A via one provider only steers A to
// the other side without cutting it off.
func TestSelectivePoisoning(t *testing.T) {
	// O(1) -> D1(2), D2(3); D1 -> B1(5) -> A(4); D2 -> A directly.
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 5; asn++ {
		b.AddAS(asn, "")
		b.AddRouter(asn, "")
	}
	for _, r := range [][2]topo.ASN{{1, 2}, {1, 3}, {2, 5}, {5, 4}, {3, 4}} {
		b.Provider(r[0], r[1])
		b.ConnectAS(r[0], r[1])
	}
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := nettest.FromTopology(t, top, 33)
	c := remedy.New(n.Eng, n.Prober, n.Clk, remedy.Config{Origin: 1})
	c.AnnounceBaseline()
	n.Converge(t)
	prod, _ := c.Prefixes()

	// Baseline: A prefers its short customer path via D2(3).
	rA, _ := n.Eng.BestRoute(4, prod)
	if rA.Path[0] != 3 {
		t.Fatalf("baseline A path = %v, want via 3", rA.Path)
	}

	c.PoisonSelective(4, 2, n.Top.Router(n.Hub(4)).Addr)
	n.Converge(t)
	rA, ok := n.Eng.BestRoute(4, prod)
	if !ok {
		t.Fatal("selective poisoning cut A off entirely")
	}
	if rA.Path[0] != 5 {
		t.Fatalf("A path = %v, want shifted to the 5-side", rA.Path)
	}
	// D2 keeps its own direct route: only A was forced to move.
	r3, ok := n.Eng.BestRoute(3, prod)
	if !ok || r3.Path[0] != 1 {
		t.Fatalf("D2 route = %v, want direct", r3)
	}
	if c.Active() == nil || c.Active().Selective != 2 {
		t.Fatalf("active = %+v", c.Active())
	}
}

func TestUnpoisonWithoutActiveIsNoop(t *testing.T) {
	n := nettest.Fig2(t)
	c := newController(t, n)
	c.Unpoison() // must not panic or announce anything weird
	if c.Active() != nil {
		t.Fatal("phantom active repair")
	}
}
