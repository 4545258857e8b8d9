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
