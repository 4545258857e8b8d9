package lifeguard_test

import (
	"net/netip"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/core/isolation"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/topo"
)

func TestAssembleNetworkSelectiveOrigination(t *testing.T) {
	b := lifeguard.NewTopologyBuilder()
	for asn := lifeguard.ASN(1); asn <= 3; asn++ {
		b.AddAS(asn, "")
		b.AddRouter(asn, "")
	}
	b.Provider(1, 2)
	b.Provider(3, 2)
	b.ConnectAS(1, 2)
	b.ConnectAS(3, 2)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := lifeguard.AssembleNetwork(top, lifeguard.NetworkOptions{
		Seed:            9,
		OriginateBlocks: []lifeguard.ASN{1, 3}, // AS2's block stays dark
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Eng.BestRoute(3, lifeguard.Block(1)); !ok {
		t.Fatal("Block(1) should be routable")
	}
	if _, ok := n.Eng.BestRoute(1, lifeguard.Block(2)); ok {
		t.Fatal("Block(2) was not originated and must not be routable")
	}
}

func TestAssembleNetworkSkipConverge(t *testing.T) {
	b := lifeguard.NewTopologyBuilder()
	b.AddAS(1, "")
	b.AddRouter(1, "")
	b.AddAS(2, "")
	b.AddRouter(2, "")
	b.Provider(1, 2)
	b.ConnectAS(1, 2)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := lifeguard.AssembleNetwork(top, lifeguard.NetworkOptions{Seed: 1, SkipConverge: true})
	if err != nil {
		t.Fatal(err)
	}
	// Announcements are still in flight: AS2 has no route yet.
	if _, ok := n.Eng.BestRoute(2, lifeguard.Block(1)); ok {
		t.Fatal("route present before convergence")
	}
	if !n.Converge() {
		t.Fatal("Converge failed")
	}
	if _, ok := n.Eng.BestRoute(2, lifeguard.Block(1)); !ok {
		t.Fatal("route missing after convergence")
	}
}

func TestGenerateInternetExposesRoles(t *testing.T) {
	n, err := lifeguard.GenerateInternet(lifeguard.InternetConfig{Seed: 5, NumTransit: 8, NumStub: 20})
	if err != nil {
		t.Fatal(err)
	}
	if n.Gen == nil || len(n.Gen.Tier1s) == 0 || len(n.Gen.Stubs) != 20 {
		t.Fatalf("Gen = %+v", n.Gen)
	}
	// Hub and RouterAddr agree with the topology.
	s := n.Gen.Stubs[0]
	if got := n.RouterAddr(n.Hub(s)); got != n.Top.Router(n.Top.AS(topo.ASN(s)).Routers[0]).Addr {
		t.Fatalf("RouterAddr mismatch: %v", got)
	}
}

func TestInjectAndHealFailureRoundTrip(t *testing.T) {
	n, err := lifeguard.GenerateInternet(lifeguard.InternetConfig{Seed: 6, NumTransit: 8, NumStub: 20})
	if err != nil {
		t.Fatal(err)
	}
	src := n.Hub(n.Gen.Stubs[0])
	dst := n.RouterAddr(n.Hub(n.Gen.Stubs[5]))
	if !n.Prober.Ping(src, dst).OK {
		t.Fatal("baseline ping failed")
	}
	// Blackhole everything at the first transit on the path.
	path := n.Eng.ASPathTo(n.Top.Router(src).AS, dst)
	id := n.InjectFailure(lifeguard.BlackholeAS(lifeguard.ASN(path[0])))
	if n.Prober.Ping(src, dst).OK {
		t.Fatal("failure not effective")
	}
	if !n.HealFailure(id) {
		t.Fatal("HealFailure = false")
	}
	if !n.Prober.Ping(src, dst).OK {
		t.Fatal("ping still failing after heal")
	}
}

// TestUnidirectionalForwardFailureEndToEnd commits the PAPER.md §4 scenario
// end to end through the public API: the forward direction across the B–A
// adjacency dies (packets crossing B→A vanish) while A→B keeps working.
// The monitor must flag the outage and isolation must classify it as a
// *forward* failure localized to the far side of the broken crossing.
func TestUnidirectionalForwardFailureEndToEnd(t *testing.T) {
	n := fig2Network(t)
	target := n.RouterAddr(n.Hub(asE))
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:  asO,
		VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
		Targets: []netip.Addr{target},
		// Observer mode: this test pins detection + classification; the
		// repair path is covered by TestEndToEndRepairLifecycle.
		DisableAutoRepair: true,
	})
	sys.Start()
	n.Clk.RunFor(3 * time.Minute) // healthy baseline

	// O's traffic to E crosses O→B→A→E; replies come back E→A→B→O. Kill
	// only the B→A crossing: forward dead, reverse alive.
	fid := n.InjectFailure(lifeguard.DropASLink(asB, asA))
	// The reverse direction really is alive: a raw packet from E still
	// reaches O (a Ping would round-trip through the dead crossing).
	res := n.Plane.Forward(n.Hub(asE), dataplane.Packet{
		Src: n.RouterAddr(n.Hub(asE)), Dst: n.RouterAddr(n.Hub(asO)),
	})
	if !res.Delivered() {
		t.Fatalf("reverse direction should be alive, got %v", res.Reason)
	}
	n.Clk.RunFor(20 * time.Minute)

	outages := sys.Outages()
	if len(outages) == 0 {
		t.Fatal("monitor did not detect the forward-only failure")
	}
	rep := outages[0].Report
	if rep.Direction != isolation.Forward {
		t.Fatalf("direction = %v, want forward (B→A dead, A→B alive)", rep.Direction)
	}
	if rep.Blamed != topo.ASN(asA) {
		t.Fatalf("blamed AS%d, want AS%d (far side of the dead crossing)", rep.Blamed, asA)
	}
	if rep.BlamedLink == nil || rep.BlamedLink[0] != topo.ASN(asA) || rep.BlamedLink[1] != topo.ASN(asB) {
		t.Fatalf("blamed link = %v, want [A B]", rep.BlamedLink)
	}
	// The working (reverse) direction was actually measured.
	if len(rep.WorkingPath) == 0 {
		t.Fatal("working-direction path missing from the report")
	}

	n.HealFailure(fid)
	sys.Stop()
}
