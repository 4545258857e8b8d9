package collectors

import (
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/nettest"
	"lifeguard/internal/topo"
)

func TestRecordsUpdateStreams(t *testing.T) {
	n := nettest.Fig2(t)
	// Attach after initial convergence so streams start clean.
	c := New(n.Eng, nettest.E, nettest.F)
	prod := topo.ProductionPrefix(nettest.O)
	n.Eng.Announce(nettest.O, prod, bgp.OriginConfig{Pattern: topo.Path{nettest.O, nettest.O, nettest.O}})
	n.Converge(t)
	if got := c.CurrentPath(nettest.E, prod); got == nil || got[0] != nettest.A {
		t.Fatalf("E current path = %v, want via A", got)
	}
	if len(c.Updates(nettest.E, prod)) == 0 {
		t.Fatal("no updates recorded for E")
	}
	// Non-peer ASes are not recorded.
	if got := c.Updates(nettest.B, prod); got != nil {
		t.Fatalf("B is not a peer but has updates: %v", got)
	}
}

func TestHarvestASes(t *testing.T) {
	n := nettest.Fig2(t)
	c := New(n.Eng, nettest.E, nettest.F)
	prod := topo.ProductionPrefix(nettest.O)
	n.Eng.Originate(nettest.O, prod)
	n.Converge(t)
	got := c.HarvestASes(prod, nettest.O)
	// E's path: A B O; F's path: A B O. Harvest = {A, B}.
	want := []topo.ASN{nettest.B, nettest.A}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("harvest = %v, want %v", got, want)
	}
}

// TestHarvestASesSkipsRoutelessPeer: a peer that never had a route to the
// prefix has an empty stream and contributes nothing to the harvest.
func TestHarvestASesSkipsRoutelessPeer(t *testing.T) {
	n := nettest.Fig2(t)
	c := New(n.Eng, nettest.E, nettest.F)
	prod := topo.ProductionPrefix(nettest.O)
	// F's only link is to A; with it down F never hears the prefix.
	n.Eng.SetAdjacencyDown(nettest.F, nettest.A, true)
	n.Eng.Originate(nettest.O, prod)
	n.Converge(t)
	if got := c.Updates(nettest.F, prod); len(got) != 0 {
		t.Fatalf("routeless F recorded updates: %v", got)
	}
	if got := c.CurrentPath(nettest.F, prod); got != nil {
		t.Fatalf("routeless F current path = %v, want nil", got)
	}
	got := c.HarvestASes(prod, nettest.O)
	// E's path: A B O; F adds nothing. Harvest = {A, B}.
	want := []topo.ASN{nettest.B, nettest.A}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("harvest = %v, want %v", got, want)
	}
}

func TestConvergenceReportClassifiesPeers(t *testing.T) {
	n := nettest.Fig2(t)
	c := New(n.Eng, nettest.E, nettest.C)
	prod := topo.ProductionPrefix(nettest.O)
	n.Eng.Announce(nettest.O, prod, bgp.OriginConfig{Pattern: topo.Path{nettest.O, nettest.O, nettest.O}})
	n.Converge(t)
	since := n.Clk.Now()
	n.Eng.Announce(nettest.O, prod, bgp.OriginConfig{Pattern: topo.Path{nettest.O, nettest.A, nettest.O}})
	n.Converge(t)
	rep := c.ConvergenceReport(prod, since, nettest.A)
	byPeer := map[topo.ASN]PeerConvergence{}
	for _, pc := range rep {
		byPeer[pc.Peer] = pc
	}
	e := byPeer[nettest.E]
	if !e.WasOnPath {
		t.Fatalf("E was routing via A pre-poison: %+v", e)
	}
	if !e.Updated || e.FinalPath == nil {
		t.Fatalf("E should have found an alternate: %+v", e)
	}
	if e.FinalPath[0] != nettest.D {
		t.Fatalf("E final path = %v, want via D", e.FinalPath)
	}
	cc := byPeer[nettest.C]
	if cc.WasOnPath {
		t.Fatalf("C was not routing via A (its path is B O): %+v", cc)
	}
	// C's path B-O-A-O changes textually (poison token) but stays via B:
	// it must settle with a single update and its final path via B.
	if cc.NumUpdates != 1 {
		t.Fatalf("unaffected C made %d updates, want 1 (prepend smoothing)", cc.NumUpdates)
	}
	if cc.FinalPath[0] != nettest.B {
		t.Fatalf("C final path = %v", cc.FinalPath)
	}
	if e.SettleTime(since) <= 0 {
		t.Fatal("E settle time should be positive")
	}
}

func TestGlobalConvergenceTime(t *testing.T) {
	n := nettest.Fig2(t)
	c := New(n.Eng, nettest.E, nettest.C, nettest.F)
	prod := topo.ProductionPrefix(nettest.O)
	n.Eng.Announce(nettest.O, prod, bgp.OriginConfig{Pattern: topo.Path{nettest.O, nettest.O, nettest.O}})
	n.Converge(t)
	since := n.Clk.Now()
	if _, ok := c.GlobalConvergenceTime(prod, since); ok {
		t.Fatal("no updates since yet")
	}
	n.Eng.Announce(nettest.O, prod, bgp.OriginConfig{Pattern: topo.Path{nettest.O, nettest.A, nettest.O}})
	n.Converge(t)
	d, ok := c.GlobalConvergenceTime(prod, since)
	if !ok {
		t.Fatal("expected updates")
	}
	if d < 0 || d.Minutes() > 10 {
		t.Fatalf("global convergence = %v", d)
	}
}

func TestWithdrawalRecordedAsNilPath(t *testing.T) {
	n := nettest.Fig2(t)
	c := New(n.Eng, nettest.F)
	prod := topo.ProductionPrefix(nettest.O)
	n.Eng.Originate(nettest.O, prod)
	n.Converge(t)
	since := n.Clk.Now()
	// Poisoning A cuts captive F off entirely.
	n.Eng.Announce(nettest.O, prod, bgp.OriginConfig{Pattern: topo.Path{nettest.O, nettest.A, nettest.O}})
	n.Converge(t)
	if got := c.CurrentPath(nettest.F, prod); got != nil {
		t.Fatalf("F should have lost its route, got %v", got)
	}
	rep := c.ConvergenceReport(prod, since, nettest.A)
	if len(rep) != 1 || !rep[0].Updated || rep[0].FinalPath != nil {
		t.Fatalf("report = %+v", rep)
	}
}

func TestNextHopThrough(t *testing.T) {
	cases := []struct {
		path topo.Path
		asn  topo.ASN
		want bool
	}{
		{topo.Path{30, 20, 10}, 20, true},              // transit hop
		{topo.Path{20, 10, 30, 10}, 30, false},         // poison token only
		{topo.Path{30, 20, 10, 10, 10}, 20, true},      // prepended origin
		{topo.Path{10, 30, 10}, 30, false},             // direct poisoned
		{nil, 20, false},                               // empty
		{topo.Path{40, 30, 20, 10, 50, 10}, 50, false}, // poison not transit
	}
	for _, c := range cases {
		if got := nextHopThrough(c.path, c.asn); got != c.want {
			t.Errorf("nextHopThrough(%v, %d) = %v, want %v", c.path, c.asn, got, c.want)
		}
	}
}

func TestAddPeerAndPeersSorted(t *testing.T) {
	n := nettest.Fig2(t)
	c := New(n.Eng, nettest.F, nettest.C)
	c.AddPeer(nettest.E)
	got := c.Peers()
	if len(got) != 3 || got[0] != nettest.C || got[1] != nettest.E || got[2] != nettest.F {
		t.Fatalf("Peers = %v", got)
	}
}
