package bgp

import (
	"fmt"
	"runtime"
	"testing"

	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

func benchTopo(b *testing.B, transits, stubs int) *topogen.Result {
	b.Helper()
	res, err := topogen.Generate(topogen.Config{Seed: 1, NumTransit: transits, NumStub: stubs})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkConvergenceSinglePrefix measures full-internet propagation of
// one prefix over a ~200-AS topology.
func BenchmarkConvergenceSinglePrefix(b *testing.B) {
	res := benchTopo(b, 40, 150)
	origin := res.Stubs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk := simclock.New()
		e := New(res.Top, clk, Config{Seed: int64(i)})
		e.Originate(origin, topo.ProductionPrefix(origin))
		if !e.Converge(50_000_000) {
			b.Fatal("no convergence")
		}
	}
}

// BenchmarkConvergenceFullTable measures every AS originating its block —
// the initial-convergence cost experiments pay once per topology.
func BenchmarkConvergenceFullTable(b *testing.B) {
	res := benchTopo(b, 25, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk := simclock.New()
		e := New(res.Top, clk, Config{Seed: int64(i)})
		for _, asn := range res.Top.ASNs() {
			e.Originate(asn, topo.Block(asn))
		}
		if !e.Converge(500_000_000) {
			b.Fatal("no convergence")
		}
	}
}

// BenchmarkConvergenceScale fills a 200-prefix table on Internet-shaped
// topologies of 200, 2k and 10k ASes. The prefix table is held fixed so the
// scaling axis is topology size alone.
func BenchmarkConvergenceScale(b *testing.B) {
	const prefixes = 200
	for _, ases := range []int{200, 2000, 10000} {
		b.Run(fmt.Sprintf("ases=%d", ases), func(b *testing.B) {
			if ases > 2000 && testing.Short() {
				b.Skip("tens of seconds and >1 GB per run")
			}
			// ~20% transit with the mean transit-peer degree held at ~2:
			// a fixed pair probability would grow lateral edges — and
			// adj-RIB state with them — quadratically in the transit
			// tier, a density change rather than a scale change.
			tier1, transit := 5, ases/5
			if ases >= 5000 {
				tier1 = 10
			}
			gen, err := topogen.Generate(topogen.Config{
				Seed:            1,
				NumTier1:        tier1,
				NumTransit:      transit,
				NumStub:         ases - tier1 - transit,
				TransitPeerProb: 2.0 / float64(transit-1),
				Large:           ases >= 1000,
			})
			if err != nil {
				b.Fatal(err)
			}
			// One production prefix per AS caps a small topology's table
			// at its stub count.
			n := min(prefixes, len(gen.Stubs))
			stride := len(gen.Stubs) / n
			fill := func() {
				e := New(gen.Top, simclock.New(), Config{Seed: 1})
				for k := 0; k < n; k++ {
					o := gen.Stubs[k*stride]
					e.Originate(o, topo.ProductionPrefix(o))
				}
				if !e.Converge(2_000_000_000) {
					b.Fatal("no convergence")
				}
			}
			// One fill untimed, then dropped: at 10k ASes b.N is 1, and a
			// process's first fill also pays for growing its heap, which
			// times the host's memory rather than the engine.
			fill()
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fill()
			}
		})
	}
}

// BenchmarkPoisonReconvergence measures one poison/converge cycle on a
// warm engine — the inner loop of the efficacy and convergence experiments.
func BenchmarkPoisonReconvergence(b *testing.B) {
	res := benchTopo(b, 40, 150)
	origin := res.Stubs[0]
	prefix := topo.ProductionPrefix(origin)
	clk := simclock.New()
	e := New(res.Top, clk, Config{Seed: 7})
	baseline := topo.Path{origin, origin, origin}
	e.Announce(origin, prefix, OriginConfig{Pattern: baseline})
	e.Converge(50_000_000)
	victim := res.Transit[3]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Announce(origin, prefix, OriginConfig{Pattern: topo.Path{origin, victim, origin}})
		e.Converge(50_000_000)
		e.Announce(origin, prefix, OriginConfig{Pattern: baseline})
		e.Converge(50_000_000)
	}
}

// BenchmarkLookupLPM measures the data-plane-facing longest-prefix match.
func BenchmarkLookupLPM(b *testing.B) {
	res := benchTopo(b, 25, 80)
	clk := simclock.New()
	e := New(res.Top, clk, Config{Seed: 3})
	for _, asn := range res.Top.ASNs() {
		e.Originate(asn, topo.Block(asn))
	}
	e.Converge(500_000_000)
	viewer := res.Stubs[0]
	addrs := make([]topo.ASN, 0, 32)
	for i, s := range res.Stubs {
		if i%3 == 0 {
			addrs = append(addrs, s)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := addrs[i%len(addrs)]
		if _, ok := e.Lookup(viewer, topo.ProductionAddr(target)); !ok {
			b.Fatal("lookup failed")
		}
	}
}
