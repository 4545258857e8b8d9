package dataplane

import (
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// lineNet builds AS1 -> AS2 -> AS3 (customer chains) with routers, converges
// BGP with every AS originating its block, and returns the pieces.
func lineNet(t *testing.T) (*topo.Topology, *bgp.Engine, *Plane) {
	t.Helper()
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 3; asn++ {
		b.AddAS(asn, "")
		b.AddRouter(asn, "") // hub
	}
	b.Provider(1, 2)
	b.Provider(2, 3)
	b.ConnectAS(1, 2)
	b.ConnectAS(2, 3)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	e := bgp.New(top, clk, bgp.Config{Seed: 1})
	for asn := topo.ASN(1); asn <= 3; asn++ {
		e.Originate(asn, topo.Block(asn))
	}
	if !e.Converge(1_000_000) {
		t.Fatal("no convergence")
	}
	return top, e, New(top, e)
}

func hub(top *topo.Topology, asn topo.ASN) topo.RouterID {
	return top.AS(asn).Routers[0]
}

func TestDeliveryAcrossLine(t *testing.T) {
	top, _, pl := lineNet(t)
	dst := top.Router(hub(top, 3)).Addr
	res := pl.Forward(hub(top, 1), Packet{Src: top.Router(hub(top, 1)).Addr, Dst: dst})
	if !res.Delivered() {
		t.Fatalf("not delivered: %v at AS%d", res.Reason, res.LastAS)
	}
	if p := res.ASPath(); !p.Equal(topo.Path{1, 2, 3}) {
		t.Fatalf("ASPath = %v", p)
	}
	if res.LastRouter != hub(top, 3) {
		t.Fatalf("delivered at router %d, want hub of AS3", res.LastRouter)
	}
}

func TestDeliveryToPrefixHostedAddr(t *testing.T) {
	top, e, pl := lineNet(t)
	e.Originate(1, topo.ProductionPrefix(1))
	e.Converge(1_000_000)
	res := pl.Forward(hub(top, 3), Packet{Dst: topo.ProductionAddr(1)})
	if !res.Delivered() || res.LastRouter != hub(top, 1) {
		t.Fatalf("res = %+v", res)
	}
}

func TestNoRoute(t *testing.T) {
	top, _, pl := lineNet(t)
	res := pl.Forward(hub(top, 1), Packet{Dst: topo.ProductionAddr(3)})
	// Block(3) covers it, so it is routable; pick an unannounced space.
	if !res.Delivered() {
		t.Fatalf("block route should cover production addr: %v", res.Reason)
	}
	res = pl.Forward(hub(top, 1), Packet{Dst: topo.RouterAddr(200, 0)})
	if res.Reason != NoRoute {
		t.Fatalf("Reason = %v, want NoRoute", res.Reason)
	}
}

func TestBlackholeASDropsTransit(t *testing.T) {
	top, _, pl := lineNet(t)
	pl.AddFailure(BlackholeAS(2))
	res := pl.Forward(hub(top, 1), Packet{Dst: top.Router(hub(top, 3)).Addr})
	if res.Reason != Blackhole || res.LastAS != 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestUnidirectionalFailure(t *testing.T) {
	top, _, pl := lineNet(t)
	// AS2 silently drops traffic destined to AS1's block: the reverse
	// direction fails while the forward direction still works.
	pl.AddFailure(BlackholeASTowards(2, topo.Block(1)))
	fwd := pl.Forward(hub(top, 1), Packet{Dst: top.Router(hub(top, 3)).Addr})
	if !fwd.Delivered() {
		t.Fatalf("forward direction should work: %v", fwd.Reason)
	}
	rev := pl.Forward(hub(top, 3), Packet{Dst: top.Router(hub(top, 1)).Addr})
	if rev.Reason != Blackhole || rev.LastAS != 2 {
		t.Fatalf("reverse res = %+v", rev)
	}
}

func TestRemoveFailureRestores(t *testing.T) {
	top, _, pl := lineNet(t)
	id := pl.AddFailure(BlackholeAS(2))
	dst := top.Router(hub(top, 3)).Addr
	if res := pl.Forward(hub(top, 1), Packet{Dst: dst}); res.Delivered() {
		t.Fatal("failure not effective")
	}
	if !pl.RemoveFailure(id) {
		t.Fatal("RemoveFailure = false")
	}
	if pl.RemoveFailure(id) {
		t.Fatal("double remove should be false")
	}
	if res := pl.Forward(hub(top, 1), Packet{Dst: dst}); !res.Delivered() {
		t.Fatalf("still failing after removal: %v", res.Reason)
	}
}

func TestTTLExpiry(t *testing.T) {
	top, _, pl := lineNet(t)
	dst := top.Router(hub(top, 3)).Addr
	full := pl.Forward(hub(top, 1), Packet{Dst: dst})
	need := len(full.Hops) - 1 // source router doesn't consume TTL
	res := pl.Forward(hub(top, 1), Packet{Dst: dst, TTL: need - 1})
	if res.Reason != TTLExpired {
		t.Fatalf("Reason = %v, want TTLExpired", res.Reason)
	}
	if len(res.Hops) >= len(full.Hops) {
		t.Fatalf("expired path not shorter: %d vs %d", len(res.Hops), len(full.Hops))
	}
	// TTL exactly sufficient delivers.
	res = pl.Forward(hub(top, 1), Packet{Dst: dst, TTL: need + 1})
	if !res.Delivered() {
		t.Fatalf("TTL %d should deliver: %v", need+1, res.Reason)
	}
}

func TestDropASLinkDirected(t *testing.T) {
	top, _, pl := lineNet(t)
	pl.AddFailure(DropASLink(2, 3))
	if res := pl.Forward(hub(top, 1), Packet{Dst: top.Router(hub(top, 3)).Addr}); res.Reason != Blackhole {
		t.Fatalf("1->3 should blackhole at the 2-3 crossing: %v", res.Reason)
	}
	if res := pl.Forward(hub(top, 3), Packet{Dst: top.Router(hub(top, 1)).Addr}); !res.Delivered() {
		t.Fatalf("3->1 should survive a directed 2->3 failure: %v", res.Reason)
	}
}

func TestBlackholeRouter(t *testing.T) {
	top, _, pl := lineNet(t)
	// Kill AS2's hub: transit through AS2 crosses it.
	pl.AddFailure(BlackholeRouter(hub(top, 2)))
	res := pl.Forward(hub(top, 1), Packet{Dst: top.Router(hub(top, 3)).Addr})
	if res.Reason != Blackhole || res.LastRouter != hub(top, 2) {
		t.Fatalf("res = %+v", res)
	}
}

func TestTransitOnlyExemptsLocalDelivery(t *testing.T) {
	top, _, pl := lineNet(t)
	pl.AddFailure(Rule{AtAS: 2, TransitOnly: true})
	// To AS2 itself: delivered.
	if res := pl.Forward(hub(top, 1), Packet{Dst: top.Router(hub(top, 2)).Addr}); !res.Delivered() {
		t.Fatalf("to-AS2 traffic should pass: %v", res.Reason)
	}
	// Through AS2: dropped.
	if res := pl.Forward(hub(top, 1), Packet{Dst: top.Router(hub(top, 3)).Addr}); res.Reason != Blackhole {
		t.Fatalf("through-AS2 traffic should drop: %v", res.Reason)
	}
}

func TestSrcScopedRuleMatchesSpoofedSource(t *testing.T) {
	top, _, pl := lineNet(t)
	pl.AddFailure(Rule{AtAS: 2, SrcWithin: topo.Block(1)})
	// A packet claiming to be from AS1 drops at AS2 even when injected
	// at AS3 (the rule sees the spoofed source).
	res := pl.Forward(hub(top, 3), Packet{
		Src: topo.RouterAddr(1, 0),
		Dst: top.Router(hub(top, 2)).Addr,
	})
	if res.Reason != Blackhole {
		t.Fatalf("spoof-source packet should drop: %v", res.Reason)
	}
	res = pl.Forward(hub(top, 3), Packet{
		Src: topo.RouterAddr(3, 0),
		Dst: top.Router(hub(top, 2)).Addr,
	})
	if !res.Delivered() {
		t.Fatalf("non-matching source should pass: %v", res.Reason)
	}
}

func TestHopsTraverseBorderAndHubRouters(t *testing.T) {
	top, _, pl := lineNet(t)
	res := pl.Forward(hub(top, 1), Packet{Dst: top.Router(hub(top, 3)).Addr})
	if !res.Delivered() {
		t.Fatal("not delivered")
	}
	// Path: hub1, bdr1-2, bdr2-1, hub2(?), bdr2-3, bdr3-2, hub3. The
	// exact count depends on BFS shortcuts, but every hop's AS must be
	// monotone 1,2,3 and both AS2 border routers must appear.
	seen := map[topo.RouterID]bool{}
	for _, h := range res.Hops {
		seen[h.Router] = true
	}
	for _, pair := range top.BorderRouters(2, 3) {
		if !seen[pair[0]] {
			t.Fatalf("egress border router %d not on path: %+v", pair[0], res.Hops)
		}
	}
	if len(res.Hops) < 5 {
		t.Fatalf("suspiciously short router path: %+v", res.Hops)
	}
}

func TestClearFailures(t *testing.T) {
	top, _, pl := lineNet(t)
	pl.AddFailure(BlackholeAS(2))
	pl.AddFailure(BlackholeRouter(hub(top, 2)))
	pl.ClearFailures()
	if res := pl.Forward(hub(top, 1), Packet{Dst: top.Router(hub(top, 3)).Addr}); !res.Delivered() {
		t.Fatalf("failures not cleared: %v", res.Reason)
	}
}
