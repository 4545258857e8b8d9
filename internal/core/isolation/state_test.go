package isolation

import (
	"net/netip"
	"testing"
	"time"

	"lifeguard/internal/atlas"
	"lifeguard/internal/nettest"
	"lifeguard/internal/topo"
)

// TestHorizonMapHoldsOneRun: the horizon map an isolator keeps between runs
// holds, after each reverse-failure run, exactly that run's historical hops,
// so that it does not grow with every pair ever isolated. On Fig. 4 the
// pair toward TransitB's router has every hop of the pair toward the
// target's but the target's router, so a map left over from that run would
// still hold it.
func TestHorizonMapHoldsOneRun(t *testing.T) {
	n := nettest.Fig4(t)
	atl := atlas.New(n.Top, n.Prober, n.Clk)
	vp := n.Hub(nettest.VP1AS)
	atl.AddVP(vp)
	atl.AddVP(n.Hub(nettest.VP5AS))
	far, near := n.Top.Router(n.Hub(nettest.TargetAS)).Addr, n.Top.Router(n.Hub(nettest.TransitB)).Addr
	atl.AddTarget(far)
	atl.AddTarget(near)
	atl.RefreshAll()
	n.Clk.RunFor(time.Minute)
	n.ReverseFailure()
	iso := New(n.Top, n.Prober, atl, n.Clk)
	for _, target := range []netip.Addr{far, near} {
		if rep := iso.Isolate(vp, target); rep.Direction != Reverse {
			t.Fatalf("%v: direction %v, want reverse", target, rep.Direction)
		}
		hops := map[topo.RouterID]bool{}
		for _, h := range iso.hops {
			hops[h.Router] = true
		}
		for r := range iso.states {
			if !hops[r] {
				t.Fatalf("%v: the horizon map holds router %d, not a historical hop of this pair", target, r)
			}
		}
		if len(iso.states) != len(hops) {
			t.Fatalf("%v: the horizon map holds %d routers, the pair has %d historical hops", target, len(iso.states), len(hops))
		}
	}
}
