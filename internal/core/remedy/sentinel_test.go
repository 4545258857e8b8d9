package remedy_test

import (
	"testing"
	"time"

	"lifeguard/internal/core/remedy"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/nettest"
	"lifeguard/internal/topo"
)

// sentinelLifecycle drives poison → persistent failure → heal → unpoison
// under a given sentinel mode and returns the controller mid-failure hooks.
func sentinelLifecycle(t *testing.T, mode remedy.SentinelMode) {
	t.Helper()
	n := nettest.Fig2(t)
	c := remedy.New(n.Eng, n.Prober, n.Clk, remedy.Config{Origin: nettest.O, Mode: mode})
	c.AnnounceBaseline()
	n.Converge(t)

	fid := n.Plane.AddFailure(dataplane.BlackholeASTowards(nettest.A, topo.Block(nettest.O)))
	victim := n.Top.Router(n.Hub(nettest.E)).Addr
	c.Poison(nettest.A, victim)
	n.Converge(t)

	// Failure persists: several sentinel intervals pass, poison stays.
	n.Clk.RunFor(10 * time.Minute)
	if c.Active() == nil {
		t.Fatalf("mode %v: unpoisoned while the failure persists", mode)
	}
	if c.Active().SentinelChecks == 0 {
		t.Fatalf("mode %v: sentinel never probed", mode)
	}

	n.Plane.RemoveFailure(fid)
	n.Clk.RunFor(5 * time.Minute)
	if c.Active() != nil {
		t.Fatalf("mode %v: poison not withdrawn after healing", mode)
	}
}

func TestSentinelLessSpecificLifecycle(t *testing.T) {
	sentinelLifecycle(t, remedy.SentinelLessSpecific)
}

func TestSentinelNonAdjacentLifecycle(t *testing.T) {
	sentinelLifecycle(t, remedy.SentinelNonAdjacent)
}

func TestSentinelPingPoisonedLifecycle(t *testing.T) {
	sentinelLifecycle(t, remedy.SentinelPingPoisoned)
}

// TestNonAdjacentSentinelSacrificesBackup shows the §7.2 trade-off: with a
// non-adjacent sentinel, repair detection still works, but captives behind
// the poisoned AS lose the production prefix with no covering backup.
func TestNonAdjacentSentinelSacrificesBackup(t *testing.T) {
	n := nettest.Fig2(t)
	c := remedy.New(n.Eng, n.Prober, n.Clk, remedy.Config{
		Origin: nettest.O, Mode: remedy.SentinelNonAdjacent,
	})
	c.AnnounceBaseline()
	n.Converge(t)
	// A live failure keeps the sentinel check from un-poisoning before the
	// poison has converged.
	n.Plane.AddFailure(dataplane.BlackholeASTowards(nettest.A, topo.Block(nettest.O)))
	c.Poison(nettest.A, n.Top.Router(n.Hub(nettest.E)).Addr)
	n.Converge(t)

	prod, sentinel := c.Prefixes()
	if sentinel != topo.NonAdjacentSentinelPrefix(nettest.O) {
		t.Fatalf("sentinel %v, want the non-adjacent prefix %v", sentinel, topo.NonAdjacentSentinelPrefix(nettest.O))
	}
	// Captive F: no production route and — unlike the less-specific
	// design — no covering backup either.
	if _, ok := n.Eng.BestRoute(nettest.F, prod); ok {
		t.Fatal("F should lose the production route")
	}
	if _, ok := n.Eng.BestRoute(nettest.F, topo.SentinelPrefix(nettest.O)); ok {
		t.Fatal("no covering /23 should exist in non-adjacent mode")
	}
	// The non-adjacent prefix itself is announced and reaches F.
	if _, ok := n.Eng.BestRoute(nettest.F, topo.NonAdjacentSentinelPrefix(nettest.O)); !ok {
		t.Fatal("non-adjacent sentinel should be announced")
	}
}

// TestLessSpecificSentinelKeepsBackup is the §7.2 contrast: the deployed
// design leaves captives a usable covering route.
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

func TestSentinelModeString(t *testing.T) {
	for m, want := range map[remedy.SentinelMode]string{
		remedy.SentinelLessSpecific: "less-specific",
		remedy.SentinelNonAdjacent:  "non-adjacent",
		remedy.SentinelPingPoisoned: "ping-poisoned",
	} {
		if m.String() != want {
			t.Fatalf("%d -> %q", m, m.String())
		}
	}
}
