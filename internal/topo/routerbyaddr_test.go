package topo_test

import (
	"net/netip"
	"testing"

	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// TestRouterByAddrIsTheAddressPlan: RouterByAddr keeps no table — it reads
// the AS and the router's index out of the address — so on generated graphs
// it must find every router by its own address and nothing at the addresses
// the plan gives to prefixes, to router indices an AS does not reach, or to
// ASes that do not exist.
func TestRouterByAddrIsTheAddressPlan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		gen, err := topogen.Generate(topogen.Config{Seed: seed, NumTier1: 3, NumTransit: 6, NumStub: 20})
		if err != nil {
			t.Fatal(err)
		}
		top := gen.Top
		for id := 0; id < top.NumRouters(); id++ {
			r := top.Router(topo.RouterID(id))
			if got, ok := top.RouterByAddr(r.Addr); !ok || got != r {
				t.Fatalf("seed %d: RouterByAddr(%v) = %v, %v, want router %d", seed, r.Addr, got, ok, id)
			}
		}
		var absent topo.ASN = 1
		for top.AS(absent) != nil {
			absent++
		}
		none := []netip.Addr{
			topo.RouterAddr(absent, 0),     // in the plan, owned by nobody
			netip.MustParseAddr("0.9.0.1"), // below every block
			netip.MustParseAddr("2001:db8::1"),
			{},
		}
		for _, asn := range top.ASNs() {
			b := topo.Block(asn).Addr().As4()
			none = append(none,
				topo.ProductionAddr(asn), topo.SentinelProbeAddr(asn),
				netip.AddrFrom4([4]byte{b[0], b[1], 242, 1}),   // an unused /24 past the sentinel
				topo.RouterAddr(asn, len(top.AS(asn).Routers)), // one past the AS's last router
				topo.RouterAddr(asn, 240*256-1),
				netip.AddrFrom4([4]byte{b[0], b[1], 255, 255}),
			)
		}
		for _, a := range none {
			if r, ok := top.RouterByAddr(a); ok {
				t.Fatalf("seed %d: RouterByAddr(%v) = router %d, want none", seed, a, r.ID)
			}
		}
	}
}
