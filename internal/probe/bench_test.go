package probe

import (
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// BenchmarkHeldProbes measures a held Tracer and a held Pinger between two
// stubs of a ~100-AS internetwork, asked once each per op, as the atlas and
// the monitor ask theirs: with nothing changed since the last ask, after an
// announcement of an unrelated prefix (which moves RIBVersion and every AS's
// forwarding version, but not the probes' destination's), and after a rule
// at an AS on their path that does not match their headers. The change
// before each ask is made with the timer stopped; since it costs far more
// than the ask, run the last two with a fixed count (-benchtime 2000x).
func BenchmarkHeldProbes(b *testing.B) {
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
	pl := dataplane.New(res.Top, eng)
	pr := New(res.Top, pl, clk)
	src := res.Top.AS(res.Stubs[0]).Routers[0]
	dst := res.Top.Router(res.Top.AS(res.Stubs[40]).Routers[0]).Addr
	tr, pg := pr.Tracer(src, dst), pr.Pinger(src, dst)
	ask := func(b *testing.B) {
		if rep := tr.Trace(); !rep.ReachedDst {
			b.Fatalf("trace did not reach %v: %+v", dst, rep)
		}
		if rep := pg.Ping(); !rep.OK {
			b.Fatalf("ping failed: %+v", rep)
		}
	}
	// The unrelated prefix, and a rule on the path that spares its headers.
	far := res.Stubs[len(res.Stubs)-1]
	var onPath topo.ASN
	for _, h := range pg.Ping().Forward.Hops {
		if onPath = h.AS; onPath != res.Stubs[0] {
			break
		}
	}
	rule := dataplane.BlackholeASTowards(onPath, topo.Block(far))
	for _, c := range []struct {
		name   string
		change func(i int)
	}{
		{"unchanged", nil},
		{"announcement", func(i int) {
			if i%2 == 0 {
				eng.Announce(far, topo.ProductionPrefix(far), bgp.OriginConfig{})
			} else {
				eng.Withdraw(far, topo.ProductionPrefix(far))
			}
			if !eng.Converge(500_000_000) {
				b.Fatal("no convergence")
			}
		}},
		{"rule", func(int) {
			if pl.ActiveFailures() == 0 {
				pl.AddFailure(rule)
			} else {
				pl.ClearFailures()
			}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			ask(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.change != nil {
					b.StopTimer()
					c.change(i)
					b.StartTimer()
				}
				ask(b)
			}
		})
	}
}
