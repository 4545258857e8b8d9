package remedy_test

import (
	"testing"
	"time"

	"lifeguard/internal/core/remedy"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/nettest"
	"lifeguard/internal/topo"
)

// TestSentinelLessSpecificLifecycle drives poison → persistent failure →
// heal → unpoison: the sentinel holds the poison while the failure stands
// and withdraws it once the avoided path heals.
func TestSentinelLessSpecificLifecycle(t *testing.T) {
	n := nettest.Fig2(t)
	c := remedy.New(n.Eng, n.Prober, n.Clk, remedy.Config{Origin: nettest.O})
	c.AnnounceBaseline()
	n.Converge(t)

	fid := n.Plane.AddFailure(dataplane.BlackholeASTowards(nettest.A, topo.Block(nettest.O)))
	victim := n.Top.Router(n.Hub(nettest.E)).Addr
	c.Poison(nettest.A, victim)
	n.Converge(t)

	// Failure persists: several sentinel intervals pass, poison stays.
	n.Clk.RunFor(10 * time.Minute)
	if c.Active() == nil {
		t.Fatal("unpoisoned while the failure persists")
	}
	if c.Active().SentinelChecks == 0 {
		t.Fatal("sentinel never probed")
	}

	n.Plane.RemoveFailure(fid)
	n.Clk.RunFor(5 * time.Minute)
	if c.Active() != nil {
		t.Fatal("poison not withdrawn after healing")
	}
}

// TestRepoisonKeepsOneSentinelTicker: poisoning an active controller again
// replaces its sentinel tick chain rather than adding a second, so checks
// keep one SentinelInterval apart.
func TestRepoisonKeepsOneSentinelTicker(t *testing.T) {
	n := nettest.Fig2(t)
	c := remedy.New(n.Eng, n.Prober, n.Clk, remedy.Config{Origin: nettest.O})
	c.AnnounceBaseline()
	n.Converge(t)
	n.Plane.AddFailure(dataplane.BlackholeASTowards(nettest.A, topo.Block(nettest.O)))
	victim := n.Top.Router(n.Hub(nettest.E)).Addr
	c.Poison(nettest.A, victim)
	r := c.Poison(nettest.A, victim)

	const d = 10 * time.Minute
	n.Clk.RunFor(d)
	if want := int(d / c.Config().SentinelInterval); r.SentinelChecks != want {
		t.Fatalf("%d sentinel checks in %v, want %d: one every %v", r.SentinelChecks, d, want, c.Config().SentinelInterval)
	}
}

// TestLessSpecificSentinelKeepsBackup: the covering sentinel leaves
// captives a usable route while the production prefix is poisoned.
func TestLessSpecificSentinelKeepsBackup(t *testing.T) {
	n := nettest.Fig2(t)
	c := remedy.New(n.Eng, n.Prober, n.Clk, remedy.Config{Origin: nettest.O})
	c.AnnounceBaseline()
	n.Converge(t)
	c.Poison(nettest.A, n.Top.Router(n.Hub(nettest.E)).Addr)
	n.Converge(t)
	r, ok := n.Eng.BestRoute(nettest.F, topo.SentinelPrefix(nettest.O))
	if !ok {
		t.Fatal("captive F must keep the covering sentinel route")
	}
	if !topo.SentinelPrefix(nettest.O).Contains(topo.ProductionAddr(nettest.O)) {
		t.Fatal("sentinel must cover production")
	}
	// Data-plane check: F can still deliver packets toward production
	// addresses over the sentinel route (they die in the failed A only
	// while the failure exists; here there is no failure).
	res := n.Plane.Forward(n.Hub(nettest.F), dataplane.Packet{Dst: topo.ProductionAddr(nettest.O)})
	if !res.Delivered() {
		t.Fatalf("F -> production via sentinel: %v", res.Reason)
	}
	_ = r
}
