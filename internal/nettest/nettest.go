// Package nettest provides canonical simulated internetworks used by tests
// across the repository: the Fig. 2 poisoning topology and the Fig. 4
// isolation topology from the paper, fully converged with routers, BGP
// state, a data plane, and a prober.
package nettest

import (
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/probe"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// Net bundles one ready-to-use simulated internetwork.
type Net struct {
	Top    *topo.Topology
	Clk    *simclock.Scheduler
	Eng    *bgp.Engine
	Plane  *dataplane.Plane
	Prober *probe.Prober
}

// Hub returns the hub (first) router of asn.
func (n *Net) Hub(asn topo.ASN) topo.RouterID { return n.Top.AS(asn).Routers[0] }

// Converge drains the control plane or fails the test.
func (n *Net) Converge(tb testing.TB) {
	tb.Helper()
	if !n.Eng.Converge(5_000_000) {
		tb.Fatal("nettest: BGP did not converge")
	}
}

// FromTopology assembles a Net over a caller-built topology: BGP engine
// with every AS's block originated and converged, data plane, and prober.
func FromTopology(tb testing.TB, top *topo.Topology, seed int64) *Net {
	tb.Helper()
	return assemble(tb, top, seed)
}

// assemble builds engine, plane and prober over a finished topology and
// originates every AS's block.
func assemble(tb testing.TB, top *topo.Topology, seed int64) *Net {
	tb.Helper()
	clk := simclock.New()
	eng := bgp.New(top, clk, bgp.Config{Seed: seed})
	for _, asn := range top.ASNs() {
		eng.Originate(asn, topo.Block(asn))
	}
	pl := dataplane.New(top, eng)
	n := &Net{
		Top: top, Clk: clk, Eng: eng, Plane: pl,
		Prober: probe.New(top, pl, clk),
	}
	n.Converge(tb)
	return n
}

// Fig. 2 cast (see the paper): O originates; poisoning A reroutes E and cuts
// off captive F.
const (
	O topo.ASN = 10
	B topo.ASN = 20
	A topo.ASN = 30
	C topo.ASN = 40
	D topo.ASN = 50
	E topo.ASN = 60
	F topo.ASN = 70
)

// Fig2 builds the routerful version of the paper's Fig. 2 topology:
//
//	O cust-of B; B cust-of A,C; C cust-of D; A,D cust-of E; F cust-of A.
//
// Pre-poison, E routes to O via A; post-poison via D-C-B. F is captive
// behind A.
func Fig2(tb testing.TB) *Net {
	tb.Helper()
	return fig2(tb, nil)
}

// Fig2Unpoisonable is Fig. 2 with F's BGP loop detection disabled
// (MaxOwnASOccurs = 0): F accepts paths containing its own ASN, so poison
// tokens naming F have no effect on it — the Smith et al. case poisoning-
// based defenses must fall back from.
func Fig2Unpoisonable(tb testing.TB) *Net {
	tb.Helper()
	return fig2(tb, func(asn topo.ASN, as *topo.AS) {
		if asn == F {
			as.MaxOwnASOccurs = 0
		}
	})
}

func fig2(tb testing.TB, tweak func(topo.ASN, *topo.AS)) *Net {
	tb.Helper()
	b := topo.NewBuilder()
	for _, asn := range []topo.ASN{O, B, A, C, D, E, F} {
		as := b.AddAS(asn, "")
		if tweak != nil {
			tweak(asn, as)
		}
		b.AddRouter(asn, "")
	}
	rel := [][2]topo.ASN{{O, B}, {B, A}, {B, C}, {C, D}, {A, E}, {D, E}, {F, A}}
	for _, r := range rel {
		b.Provider(r[0], r[1])
		b.ConnectAS(r[0], r[1])
	}
	top, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return assemble(tb, top, 21)
}

// Fig. 4 cast: vantage points in AS 1 and AS 5, target in AS 4, transit
// through AS 2 and AS 3.
const (
	VP1AS    topo.ASN = 1
	TransitA topo.ASN = 2 // near-side transit (TransTelecom analogue)
	TransitB topo.ASN = 3 // far-side transit (Rostelecom analogue)
	TargetAS topo.ASN = 4 // destination (Smartkom analogue)
	VP5AS    topo.ASN = 5
)

// Fig4 builds the isolation scenario of the paper's Fig. 4: two vantage
// points behind a shared transit, a destination two transit hops away. A
// reverse-path failure is modelled by TransitB dropping traffic destined to
// the VP1 block (use ReverseFailure).
func Fig4(tb testing.TB) *Net {
	tb.Helper()
	b := topo.NewBuilder()
	for asn := VP1AS; asn <= VP5AS; asn++ {
		b.AddAS(asn, "")
		b.AddRouter(asn, "")
	}
	for _, r := range [][2]topo.ASN{{VP1AS, TransitA}, {VP5AS, TransitA}, {TransitB, TransitA}, {TargetAS, TransitB}} {
		b.Provider(r[0], r[1])
		b.ConnectAS(r[0], r[1])
	}
	top, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return assemble(tb, top, 9)
}

// ReverseFailure makes TransitB silently drop traffic destined to VP1's
// block — the unidirectional failure of the Fig. 4 walkthrough.
func (n *Net) ReverseFailure() dataplane.FailureID {
	return n.Plane.AddFailure(dataplane.BlackholeASTowards(TransitB, topo.Block(VP1AS)))
}
