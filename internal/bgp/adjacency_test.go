package bgp

import (
	"testing"
	"time"

	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// diamond: 1 originates; 1 customer of 2 and 3; 2 and 3 customers of 4.
// 4 has two disjoint ways down to 1.
func diamond(t *testing.T) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 4; asn++ {
		b.AddAS(asn, "")
	}
	b.Provider(1, 2)
	b.Provider(1, 3)
	b.Provider(2, 4)
	b.Provider(3, 4)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestAdjacencyDownFailsOver(t *testing.T) {
	top := diamond(t)
	clk := simclock.New()
	e := New(top, clk, Config{Seed: 2})
	prefix := topo.ProductionPrefix(1)
	e.Originate(1, prefix)
	if !e.Converge(5_000_000) {
		t.Fatal("no convergence")
	}
	r, _ := e.BestRoute(4, prefix)
	primary, _ := r.NextHop()
	backup := topo.ASN(2 + 3 - primary) // the other middle AS

	// Cut the session 1—primary: AS4 must fail over to the other side.
	e.SetAdjacencyDown(1, primary, true)
	if !e.Converge(5_000_000) {
		t.Fatal("no convergence after session failure")
	}
	r, ok := e.BestRoute(4, prefix)
	if !ok {
		t.Fatal("AS4 lost the route entirely")
	}
	if nh, _ := r.NextHop(); nh != backup {
		t.Fatalf("AS4 next hop = %d, want failover to %d", nh, backup)
	}
	if !e.AdjacencyDown(1, primary) {
		t.Fatal("AdjacencyDown should report true")
	}

	// Restore: AS4 returns to the primary path.
	e.SetAdjacencyDown(1, primary, false)
	if !e.Converge(5_000_000) {
		t.Fatal("no convergence after restore")
	}
	r, _ = e.BestRoute(4, prefix)
	if nh, _ := r.NextHop(); nh != primary {
		t.Fatalf("AS4 next hop = %d, want %d after restore", nh, primary)
	}
	if e.AdjacencyDown(1, primary) {
		t.Fatal("AdjacencyDown should report false after restore")
	}
}

func TestAdjacencyDownLongWayRound(t *testing.T) {
	top := diamond(t)
	clk := simclock.New()
	e := New(top, clk, Config{Seed: 3})
	prefix := topo.ProductionPrefix(1)
	e.Originate(1, prefix)
	e.Converge(5_000_000)
	r, _ := e.BestRoute(4, prefix)
	primary, _ := r.NextHop()
	e.SetAdjacencyDown(1, primary, true)
	e.Converge(5_000_000)
	// primary still reaches 1 the long way: via its provider 4.
	rp, ok := e.BestRoute(primary, prefix)
	if !ok {
		t.Fatalf("AS%d should reach 1 via its provider", primary)
	}
	if nh, _ := rp.NextHop(); nh != 4 {
		t.Fatalf("AS%d next hop = %d, want 4", primary, nh)
	}
}

func TestAdjacencyDownWholeTableRestored(t *testing.T) {
	// Multiple prefixes: a session restore must re-advertise everything.
	top := diamond(t)
	clk := simclock.New()
	e := New(top, clk, Config{Seed: 4})
	prefixes := []struct{ owner topo.ASN }{{1}, {2}, {4}}
	for _, p := range prefixes {
		e.Originate(p.owner, topo.Block(p.owner))
	}
	e.Converge(5_000_000)
	e.SetAdjacencyDown(2, 4, true)
	e.Converge(5_000_000)
	e.SetAdjacencyDown(2, 4, false)
	if !e.Converge(5_000_000) {
		t.Fatal("no convergence")
	}
	// Every AS must again have routes to every block, and AS4's route to
	// Block(1) may again use either side.
	for _, asn := range top.ASNs() {
		for _, p := range prefixes {
			if asn == p.owner {
				continue
			}
			if _, ok := e.BestRoute(asn, topo.Block(p.owner)); !ok {
				t.Fatalf("AS%d missing route to Block(%d) after restore", asn, p.owner)
			}
		}
	}
}

func TestAdjacencyDownNotAdjacentPanics(t *testing.T) {
	top := diamond(t)
	clk := simclock.New()
	e := New(top, clk, Config{Seed: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-adjacent pair")
		}
	}()
	e.SetAdjacencyDown(1, 4, true)
}

// TestSessionFailureIsVisibleUnlikeSilentFailure is the conceptual contrast
// at the heart of the paper: a session failure heals itself via BGP; a
// silent failure leaves stale routes in place forever.
func TestSessionFailureIsVisibleUnlikeSilentFailure(t *testing.T) {
	top := diamond(t)
	clk := simclock.New()
	e := New(top, clk, Config{Seed: 6})
	prefix := topo.ProductionPrefix(1)
	e.Originate(1, prefix)
	e.Converge(5_000_000)
	r, _ := e.BestRoute(4, prefix)
	primary, _ := r.NextHop()

	// Visible failure: routes move on their own.
	e.SetAdjacencyDown(1, primary, true)
	e.Converge(5_000_000)
	r, _ = e.BestRoute(4, prefix)
	if nh, _ := r.NextHop(); nh == primary {
		t.Fatal("BGP did not react to a visible failure")
	}
	e.SetAdjacencyDown(1, primary, false)
	e.Converge(5_000_000)

	// Silent failure (modelled in the data plane only): the control
	// plane keeps the stale route — no reaction, which is precisely why
	// LIFEGUARD needs poisoning.
	r, _ = e.BestRoute(4, prefix)
	before, _ := r.NextHop()
	// (no engine call at all — the silent failure is invisible here)
	e.Converge(5_000_000)
	r, _ = e.BestRoute(4, prefix)
	after, _ := r.NextHop()
	if before != after {
		t.Fatal("routes changed with no visible event")
	}
}

// TestUpdateInFlightDiesWithItsSession: an update already on the wire when
// its session fails must not be applied on arrival — the receiver has just
// dropped everything it learned over that session. The dead delivery is the
// last event, but the control plane goes quiet only when the MRAI interval
// AS1's flush started has run out.
func TestUpdateInFlightDiesWithItsSession(t *testing.T) {
	e, clk := newEngine(t, lineTopo(t))
	p := topo.ProductionPrefix(1)
	e.Originate(1, p)
	for e.UpdatesSentBy(1) == 0 {
		if !clk.Step() {
			t.Fatal("AS1 never flushed")
		}
	}
	sent := clk.Now()
	if _, ok := e.BestRoute(2, p); ok || e.Quiescent() {
		t.Fatal("want AS1's update still in flight")
	}
	e.SetAdjacencyDown(1, 2, true)
	converge(t, e)
	shortest := time.Duration(float64(e.cfg.MRAI) * (1 - e.cfg.MRAIJitter))
	if clk.Now() < sent+shortest {
		t.Errorf("quiet at %v, %v after the flush: before its MRAI interval (at least %v) ran out", clk.Now(), clk.Now()-sent, shortest)
	}
	if r, ok := e.BestRoute(2, p); ok {
		t.Fatalf("AS2 installed %v from a session that was down when it arrived", r)
	}
	if in := e.Speaker(2).AdjIn(p); len(in) != 0 {
		t.Fatalf("AS2 adj-RIB-in holds %v", in)
	}
}
