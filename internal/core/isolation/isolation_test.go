package isolation_test

import (
	"net/netip"
	"testing"
	"time"

	"lifeguard/internal/atlas"
	"lifeguard/internal/core/isolation"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/nettest"
	"lifeguard/internal/topo"
)

// rig is a Fig.4 network with a warmed-up atlas and an isolator.
type rig struct {
	n      *nettest.Net
	atl    *atlas.Atlas
	iso    *isolation.Isolator
	vp     topo.RouterID
	target netip.Addr
}

func setup(t *testing.T) *rig {
	t.Helper()
	n := nettest.Fig4(t)
	atl := atlas.New(n.Top, n.Prober, n.Clk)
	atl.AddVP(n.Hub(nettest.VP1AS))
	atl.AddVP(n.Hub(nettest.VP5AS))
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	atl.AddTarget(target)
	// Two refresh rounds of history before anything breaks.
	atl.RefreshAll()
	n.Clk.RunFor(15 * time.Minute)
	atl.RefreshAll()
	n.Clk.RunFor(time.Minute)
	return &rig{
		n:      n,
		atl:    atl,
		iso:    isolation.New(n.Top, n.Prober, atl, n.Clk),
		vp:     n.Hub(nettest.VP1AS),
		target: target,
	}
}

func TestHealedWhenNoFailure(t *testing.T) {
	r := setup(t)
	rep := r.iso.Isolate(r.vp, r.target)
	if !rep.Healed {
		t.Fatalf("expected healed report, got %+v", rep)
	}
}

// TestReverseFailureIsolation replays the paper's Fig. 4 walkthrough: the
// far transit (Rostelecom analogue) loses its path back to the vantage
// point. Traceroute alone blames the near transit; LIFEGUARD must blame the
// far one.
func TestReverseFailureIsolation(t *testing.T) {
	r := setup(t)
	r.n.ReverseFailure()
	rep := r.iso.Isolate(r.vp, r.target)
	if rep.Healed {
		t.Fatal("failure not detected")
	}
	if rep.Direction != isolation.Reverse {
		t.Fatalf("direction = %v, want reverse", rep.Direction)
	}
	if rep.Blamed != nettest.TransitB {
		t.Fatalf("blamed AS%d, want AS%d (TransitB)", rep.Blamed, nettest.TransitB)
	}
	if rep.TracerouteBlame != nettest.TransitA {
		t.Fatalf("traceroute blame = AS%d, want AS%d (the misleading near transit)",
			rep.TracerouteBlame, nettest.TransitA)
	}
	if rep.TracerouteBlame == rep.Blamed {
		t.Fatal("this is exactly the case where traceroute-only diagnosis is wrong")
	}
	if rep.BlamedLink == nil || rep.BlamedLink[0] != nettest.TransitB || rep.BlamedLink[1] != nettest.TransitA {
		t.Fatalf("blamed link = %v, want [3 2]", rep.BlamedLink)
	}
	// The working (forward) direction was measured via spoofed traceroute.
	if len(rep.WorkingPath) == 0 {
		t.Fatal("working-direction path missing")
	}
	var wp topo.Path
	for _, h := range rep.WorkingPath {
		if !h.Star && (len(wp) == 0 || wp[len(wp)-1] != h.AS) {
			wp = append(wp, h.AS)
		}
	}
	if !wp.Equal(topo.Path{1, 2, 3, 4}) {
		t.Fatalf("working path = %v", wp)
	}
}

func TestForwardFailureIsolation(t *testing.T) {
	r := setup(t)
	// Directed failure: packets crossing from VP1's AS toward TransitA
	// vanish; replies (TransitA -> VP1) still flow.
	r.n.Plane.AddFailure(dataplane.DropASLink(nettest.VP1AS, nettest.TransitA))
	rep := r.iso.Isolate(r.vp, r.target)
	if rep.Direction != isolation.Forward {
		t.Fatalf("direction = %v, want forward", rep.Direction)
	}
	if rep.Blamed != nettest.TransitA {
		t.Fatalf("blamed = AS%d, want AS%d (far side of the broken link)", rep.Blamed, nettest.TransitA)
	}
	if rep.BlamedLink == nil || rep.BlamedLink[0] != nettest.TransitA || rep.BlamedLink[1] != nettest.VP1AS {
		t.Fatalf("blamed link = %v", rep.BlamedLink)
	}
	// Working (reverse) direction measured via reverse traceroute.
	if len(rep.WorkingPath) == 0 {
		t.Fatal("working-direction path missing")
	}
}

func TestBidirectionalFailureIsolation(t *testing.T) {
	r := setup(t)
	// TransitB blackholes all transit traffic in both directions — a
	// complete outage for both VPs, so no helper exists.
	r.n.Plane.AddFailure(dataplane.Rule{AtAS: nettest.TransitB, TransitOnly: true})
	rep := r.iso.Isolate(r.vp, r.target)
	if rep.Direction != isolation.Bidirectional {
		t.Fatalf("direction = %v, want bidirectional", rep.Direction)
	}
	if rep.Blamed != nettest.TransitB {
		t.Fatalf("blamed = AS%d, want AS%d", rep.Blamed, nettest.TransitB)
	}
	// Here traceroute agrees (forward component is visible).
	if rep.TracerouteBlame != nettest.TransitA {
		t.Fatalf("traceroute blame = AS%d (last responsive hop's AS)", rep.TracerouteBlame)
	}
}

func TestConfiguredSilentRouterNotBlamed(t *testing.T) {
	// A router that never answered probes must not be treated as broken:
	// its silence during the failure proves nothing (§4.1.2).
	n := nettest.Fig4(t)
	// TransitB's routers are ICMP-silent from the start.
	for _, rid := range n.Top.AS(nettest.TransitB).Routers {
		n.Top.Router(rid).Responsive = false
	}
	atl := atlas.New(n.Top, n.Prober, n.Clk)
	atl.AddVP(n.Hub(nettest.VP1AS))
	atl.AddVP(n.Hub(nettest.VP5AS))
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	atl.AddTarget(target)
	atl.RefreshAll()
	n.Clk.RunFor(time.Minute)
	iso := isolation.New(n.Top, n.Prober, atl, n.Clk)
	n.ReverseFailure()
	rep := iso.Isolate(n.Hub(nettest.VP1AS), target)
	if rep.Direction != isolation.Reverse {
		t.Fatalf("direction = %v", rep.Direction)
	}
	// With TransitB unprobeable, the horizon evidence stops at the
	// target side; isolation must not blame TransitB on silence alone.
	if rep.Blamed == nettest.TransitB {
		t.Fatal("blamed a configured-silent AS with no positive evidence")
	}
}

func TestProbeBudgetAndDuration(t *testing.T) {
	r := setup(t)
	r.n.ReverseFailure()
	r.n.Prober.ResetSent()
	rep := r.iso.Isolate(r.vp, r.target)
	if rep.ProbesUsed == 0 || rep.ProbesUsed != r.n.Prober.Sent {
		t.Fatalf("ProbesUsed = %d, prober sent %d", rep.ProbesUsed, r.n.Prober.Sent)
	}
	if rep.ProbesUsed > 500 {
		t.Fatalf("isolation used %d probes; paper-scale budget is ~280", rep.ProbesUsed)
	}
	want := time.Duration(rep.ProbesUsed) * 500 * time.Millisecond
	if rep.EstimatedDuration != want {
		t.Fatalf("EstimatedDuration = %v, want %v", rep.EstimatedDuration, want)
	}
}

func TestIsolationDeterministic(t *testing.T) {
	run := func() topo.ASN {
		r := setup(t)
		r.n.ReverseFailure()
		return r.iso.Isolate(r.vp, r.target).Blamed
	}
	if run() != run() {
		t.Fatal("isolation nondeterministic")
	}
}
