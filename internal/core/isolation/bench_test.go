package isolation_test

import (
	"testing"
	"time"

	"lifeguard/internal/atlas"
	"lifeguard/internal/core/isolation"
	"lifeguard/internal/nettest"
)

// BenchmarkIsolateReverseFailure measures one full isolation run — the
// spoofed-ping direction test, working-direction measurement, horizon
// probing, and blame — against a warmed atlas.
func BenchmarkIsolateReverseFailure(b *testing.B) {
	n := nettest.Fig4(b)
	atl := atlas.New(n.Top, n.Prober, n.Clk)
	atl.AddVP(n.Hub(nettest.VP1AS))
	atl.AddVP(n.Hub(nettest.VP5AS))
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	atl.AddTarget(target)
	atl.RefreshAll()
	n.Clk.RunFor(15 * time.Minute)
	atl.RefreshAll()
	iso := isolation.New(n.Top, n.Prober, atl, n.Clk)
	n.ReverseFailure()
	vp := n.Hub(nettest.VP1AS)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := iso.Isolate(vp, target)
		if rep.Blamed != nettest.TransitB {
			b.Fatalf("blamed %d", rep.Blamed)
		}
	}
}
