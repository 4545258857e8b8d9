package dataplane

import (
	"fmt"
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// BenchmarkDataplaneForward measures an end-to-end packet walk across a ~100-AS
// internetwork — the primitive under every probe.
func BenchmarkDataplaneForward(b *testing.B) {
	res, err := topogen.Generate(topogen.Config{Seed: 1, NumTransit: 25, NumStub: 80})
	if err != nil {
		b.Fatal(err)
	}
	clk := simclock.New()
	eng := bgp.New(res.Top, clk, bgp.Config{Seed: 1})
	for _, asn := range res.Top.ASNs() {
		eng.Originate(asn, topo.Block(asn))
	}
	if !eng.Converge(500_000_000) {
		b.Fatal("no convergence")
	}
	pl := New(res.Top, eng)
	src := res.Top.AS(res.Stubs[0]).Routers[0]
	var dsts []Packet
	for i, s := range res.Stubs[1:] {
		if i%4 == 0 {
			dsts = append(dsts, Packet{Dst: res.Top.Router(res.Top.AS(s).Routers[0]).Addr})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := pl.Forward(src, dsts[i%len(dsts)]); !res.Delivered() {
			b.Fatalf("not delivered: %v", res.Reason)
		}
	}
}

// BenchmarkDataplaneForwardWithFailures measures the same walk with a rule table
// installed (the matching cost probes pay during failure experiments).
func BenchmarkDataplaneForwardWithFailures(b *testing.B) {
	res, err := topogen.Generate(topogen.Config{Seed: 1, NumTransit: 25, NumStub: 80})
	if err != nil {
		b.Fatal(err)
	}
	clk := simclock.New()
	eng := bgp.New(res.Top, clk, bgp.Config{Seed: 1})
	for _, asn := range res.Top.ASNs() {
		eng.Originate(asn, topo.Block(asn))
	}
	eng.Converge(500_000_000)
	pl := New(res.Top, eng)
	// Ten rules that never match the benched traffic.
	for i := 0; i < 10; i++ {
		pl.AddFailure(BlackholeASTowards(res.Stubs[len(res.Stubs)-1-i], topo.Block(res.Stubs[i])))
	}
	src := res.Top.AS(res.Stubs[0]).Routers[0]
	dst := res.Top.Router(res.Top.AS(res.Stubs[40]).Routers[0]).Addr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Forward(src, Packet{Dst: dst})
	}
}

// BenchmarkFlowForwardN measures one run of a flow group — n packets of one
// header through a held Flow, the way the traffic generator sends each
// (destination, vantage) group every epoch. Reported ns/op is per run: on
// the cached path it should stay flat in n, since the repeats are counted,
// not walked.
func BenchmarkFlowForwardN(b *testing.B) {
	res, err := topogen.Generate(topogen.Config{Seed: 1, NumTransit: 25, NumStub: 80})
	if err != nil {
		b.Fatal(err)
	}
	clk := simclock.New()
	eng := bgp.New(res.Top, clk, bgp.Config{Seed: 1})
	for _, asn := range res.Top.ASNs() {
		eng.Originate(asn, topo.Block(asn))
	}
	if !eng.Converge(500_000_000) {
		b.Fatal("no convergence")
	}
	pl := New(res.Top, eng)
	src := res.Top.AS(res.Stubs[0]).Routers[0]
	dst := res.Top.Router(res.Top.AS(res.Stubs[40]).Routers[0]).Addr
	f := pl.Flow(src, topo.ProductionAddr(res.Stubs[0]), dst)
	for _, n := range []int64{1, 64, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if fates := f.ForwardN(n); fates[Delivered] != n {
					b.Fatalf("not delivered: %v", fates)
				}
			}
		})
	}
}
