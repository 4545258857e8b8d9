package bgp

import (
	"testing"

	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// lineTopo builds stub(1) -> transit(2) -> transit(3) -> stub(4), each AS a
// customer of the next.
func lineTopo(t *testing.T) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 4; asn++ {
		b.AddAS(asn, "")
	}
	b.Provider(1, 2)
	b.Provider(2, 3)
	b.Provider(3, 4)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func newEngine(t *testing.T, top *topo.Topology) (*Engine, *simclock.Scheduler) {
	t.Helper()
	clk := simclock.New()
	return New(top, clk, Config{Seed: 42}), clk
}

func converge(t *testing.T, e *Engine) {
	t.Helper()
	if !e.Converge(5_000_000) {
		t.Fatal("engine did not converge")
	}
}

// fig2Topo reproduces the topology of Fig. 2 in the paper.
//
//	O(10) customer of B(20); B customer of A(30) and C(40); C customer of
//	D(50); A and D customers of E(60); F(70) customer of A.
func fig2Topo(t *testing.T) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	for _, asn := range []topo.ASN{10, 20, 30, 40, 50, 60, 70} {
		b.AddAS(asn, "")
	}
	b.Provider(10, 20) // O -> B
	b.Provider(20, 30) // B -> A
	b.Provider(20, 40) // B -> C
	b.Provider(40, 50) // C -> D
	b.Provider(30, 60) // A -> E
	b.Provider(50, 60) // D -> E
	b.Provider(70, 30) // F -> A
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}
