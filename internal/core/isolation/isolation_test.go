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

// staleHistory isolates a reverse failure whose newest reverse path cannot
// settle the blame, so that the §4.1.2 analysis must try older records.
// VP1 and VP5 sit behind transit A; the target's AS T is multihomed to A's
// customers B and C. The atlas first records cPaths refreshes while T's
// session to B is down (both directions cross C), then bPaths with it up
// (both cross B), each refresh re-confirming the last path. Throughout,
// forward probes die on the links into T, so T's router is never seen to
// answer a ping and its silence proves nothing. Then the target's replies
// to VP1 are dropped in B — the router's own replies still pass, so every
// hop of the B path reaches VP1 — and C goes dark.
func staleHistory(t *testing.T, cPaths, bPaths int) *isolation.Report {
	t.Helper()
	const (
		vp1, a, b, tgt, vp5, c topo.ASN = 1, 2, 3, 4, 5, 6
	)
	bld := topo.NewBuilder()
	for asn := vp1; asn <= c; asn++ {
		bld.AddAS(asn, "")
		bld.AddRouter(asn, "")
	}
	for _, r := range [][2]topo.ASN{{vp1, a}, {vp5, a}, {b, a}, {c, a}, {tgt, b}, {tgt, c}} {
		bld.Provider(r[0], r[1])
		bld.ConnectAS(r[0], r[1])
	}
	top, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := nettest.FromTopology(t, top, 9)
	target := topo.ProductionAddr(tgt)
	atl := atlas.New(n.Top, n.Prober, n.Clk)
	atl.AddVP(n.Hub(vp1))
	atl.AddVP(n.Hub(vp5))
	atl.AddTarget(target)
	var fwdDrops []dataplane.FailureID
	for _, via := range []topo.ASN{b, c} {
		fwdDrops = append(fwdDrops, n.Plane.AddFailure(dataplane.Rule{FromAS: via, ToAS: tgt, DstWithin: topo.ProductionPrefix(tgt)}))
	}
	refresh := func(k int) {
		for i := 0; i < k; i++ {
			atl.RefreshAll()
			n.Clk.RunFor(15 * time.Minute)
		}
	}
	n.Eng.SetAdjacencyDown(tgt, b, true)
	n.Converge(t)
	refresh(cPaths)
	n.Eng.SetAdjacencyDown(tgt, b, false)
	n.Converge(t)
	refresh(bPaths)
	if recs := atl.Reverse(n.Hub(vp1), target); len(recs) != cPaths+bPaths || !recs[len(recs)-1].Repeats(&recs[len(recs)-2]) {
		t.Fatalf("%d reverse records, want %d ending in a repeat", len(recs), cPaths+bPaths)
	}

	for _, id := range fwdDrops {
		n.Plane.RemoveFailure(id)
	}
	n.Plane.AddFailure(dataplane.Rule{AtAS: b, SrcWithin: topo.ProductionPrefix(tgt), DstWithin: topo.Block(vp1)})
	n.Plane.AddFailure(dataplane.BlackholeAS(c))
	rep := isolation.New(n.Top, n.Prober, atl, n.Clk).Isolate(n.Hub(vp1), target)
	if rep.Direction != isolation.Reverse {
		t.Fatalf("direction = %v, want reverse", rep.Direction)
	}
	return rep
}

// TestOlderReversePathsWithinFive holds the suspect-set expansion to the
// five newest pre-failure records, repeats counted, each distinct path read
// once. The newest path (through B) is inconclusive; with two C records
// among the newest six, the five newest reach the older C path, whose dark
// hop is blamed, and with one they do not and nothing is blamed. Both
// verdicts are what isolation gave while it copied the records out newest
// first. The mutations this must fail under, and did (CHANGES.md): the cap
// counting only non-repeats; the records walked oldest first.
func TestOlderReversePathsWithinFive(t *testing.T) {
	if rep := staleHistory(t, 2, 4); rep.Blamed != 6 || rep.BlamedLink == nil || *rep.BlamedLink != [2]topo.ASN{6, 2} {
		t.Errorf("2 C then 4 B records: blamed AS%d, link %v; want AS6 failing toward AS2", rep.Blamed, rep.BlamedLink)
	}
	if rep := staleHistory(t, 1, 5); rep.Blamed != 0 {
		t.Errorf("1 C then 5 B records: blamed AS%d; the C path is the sixth newest and must not be read", rep.Blamed)
	}
}

// TestReverseIsolationAllocations budgets a steady-state reverse-failure
// isolation, its buffers grown by the run before, at 4 objects: the Report,
// the two it keeps (the working path's hops and the blamed link) and the
// hops of the plain traceroute whose blame it reads. The pings, the
// horizon's reverse traceroutes, the atlas reads and the horizon map
// allocate nothing.
func TestReverseIsolationAllocations(t *testing.T) {
	r := setup(t)
	r.n.ReverseFailure()
	r.iso.Isolate(r.vp, r.target)
	allocs := testing.AllocsPerRun(50, func() {
		if rep := r.iso.Isolate(r.vp, r.target); rep.Blamed != nettest.TransitB {
			t.Fatalf("blamed AS%d", rep.Blamed)
		}
	})
	const budget = 4
	if allocs > budget {
		t.Fatalf("a reverse-failure isolation allocates %v objects, budget %d", allocs, budget)
	}
}
