package probe

import (
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// fig4Net builds the shape of the paper's Fig. 4 example:
//
//	VP1(AS1) and VP5(AS5) are customers of transit AS2; AS3 is AS2's
//	customer-side transit toward the destination AS4.
//
// A reverse failure is modelled as AS3 dropping traffic destined to AS1
// (Rostelecom losing its route back to GMU).
type fig4 struct {
	top *topo.Topology
	eng *bgp.Engine
	pl  *dataplane.Plane
	clk *simclock.Scheduler
	pr  *Prober
	vp1 topo.RouterID // GMU-like vantage point
	vp5 topo.RouterID // second vantage point with working paths
	dst topo.RouterID // target router in AS4
}

func buildFig4(t *testing.T) *fig4 {
	t.Helper()
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 5; asn++ {
		b.AddAS(asn, "")
		b.AddRouter(asn, "")
	}
	b.Provider(1, 2)
	b.Provider(5, 2)
	b.Provider(3, 2)
	b.Provider(4, 3)
	b.ConnectAS(1, 2)
	b.ConnectAS(5, 2)
	b.ConnectAS(3, 2)
	b.ConnectAS(4, 3)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	eng := bgp.New(top, clk, bgp.Config{Seed: 9})
	for asn := topo.ASN(1); asn <= 5; asn++ {
		eng.Originate(asn, topo.Block(asn))
	}
	if !eng.Converge(1_000_000) {
		t.Fatal("no convergence")
	}
	pl := dataplane.New(top, eng)
	return &fig4{
		top: top, eng: eng, pl: pl, clk: clk,
		pr:  New(top, pl, clk),
		vp1: top.AS(1).Routers[0],
		vp5: top.AS(5).Routers[0],
		dst: top.AS(4).Routers[0],
	}
}

func (f *fig4) injectReverseFailure() dataplane.FailureID {
	// AS3 silently drops everything destined to AS1's block.
	return f.pl.AddFailure(dataplane.BlackholeASTowards(3, topo.Block(1)))
}

func TestPingRoundTrip(t *testing.T) {
	f := buildFig4(t)
	rep := f.pr.Ping(f.vp1, f.top.Router(f.dst).Addr)
	if !rep.OK || !rep.ForwardOK || !rep.Responded || !rep.ReverseOK {
		t.Fatalf("ping report = %+v", rep)
	}
	if got := rep.Forward.ASPath(); !got.Equal(topo.Path{1, 2, 3, 4}) {
		t.Fatalf("forward AS path = %v", got)
	}
}

func TestPingDetectsReverseFailure(t *testing.T) {
	f := buildFig4(t)
	f.injectReverseFailure()
	rep := f.pr.Ping(f.vp1, f.top.Router(f.dst).Addr)
	if rep.OK {
		t.Fatal("ping should fail")
	}
	if !rep.ForwardOK || !rep.Responded || rep.ReverseOK {
		t.Fatalf("want forward-only success, got %+v", rep)
	}
}

func TestPingUnresponsiveTarget(t *testing.T) {
	f := buildFig4(t)
	f.top.Router(f.dst).Responsive = false
	rep := f.pr.Ping(f.vp1, f.top.Router(f.dst).Addr)
	if rep.OK || rep.Responded || !rep.ForwardOK {
		t.Fatalf("report = %+v", rep)
	}
}

func TestPingPrefixHostAlwaysResponds(t *testing.T) {
	f := buildFig4(t)
	f.eng.Originate(4, topo.ProductionPrefix(4))
	f.eng.Converge(1_000_000)
	rep := f.pr.Ping(f.vp1, topo.ProductionAddr(4))
	if !rep.OK {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRateLimiting(t *testing.T) {
	f := buildFig4(t)
	f.top.Router(f.dst).RateLimitPerRound = 2
	addr := f.top.Router(f.dst).Addr
	for i := 0; i < 2; i++ {
		if rep := f.pr.Ping(f.vp1, addr); !rep.OK {
			t.Fatalf("ping %d should succeed", i)
		}
	}
	if rep := f.pr.Ping(f.vp1, addr); rep.OK || rep.Responded {
		t.Fatalf("third ping should be rate-limited: %+v", rep)
	}
	// The budget stays spent for the rest of the window...
	f.clk.RunFor(rateWindow / 2)
	if rep := f.pr.Ping(f.vp1, addr); rep.Responded {
		t.Fatalf("ping inside the window should be rate-limited: %+v", rep)
	}
	// ...and a new window, rateWindow after the first reply, restores it.
	f.clk.RunFor(rateWindow / 2)
	if rep := f.pr.Ping(f.vp1, addr); !rep.OK {
		t.Fatalf("ping after window should succeed: %+v", rep)
	}
}

func TestTracerouteFullPath(t *testing.T) {
	f := buildFig4(t)
	rep := f.pr.Traceroute(f.vp1, f.top.Router(f.dst).Addr)
	if !rep.ReachedDst {
		t.Fatalf("traceroute did not reach dst: %+v", rep.Hops)
	}
	if got := rep.ASPath(); !got.Equal(topo.Path{1, 2, 3, 4}) {
		t.Fatalf("AS path = %v", got)
	}
	for _, h := range rep.Hops {
		if h.Star {
			t.Fatalf("unexpected star on healthy path: %+v", rep.Hops)
		}
	}
}

// TestTracerouteMisleadsOnReverseFailure reproduces the Fig. 4 deception:
// with a reverse failure in AS3, a plain traceroute truncates at AS2 and an
// operator would wrongly blame the AS2→AS3 boundary.
func TestTracerouteMisleadsOnReverseFailure(t *testing.T) {
	f := buildFig4(t)
	f.injectReverseFailure()
	rep := f.pr.Traceroute(f.vp1, f.top.Router(f.dst).Addr)
	if rep.ReachedDst {
		t.Fatal("traceroute should not complete")
	}
	last, ok := rep.LastResponsive()
	if !ok {
		t.Fatal("no responsive hops at all")
	}
	if last.AS != 2 {
		t.Fatalf("last responsive hop in AS%d, want AS2 (the misleading horizon)", last.AS)
	}
}

func TestSpoofedTracerouteMeasuresWorkingDirection(t *testing.T) {
	f := buildFig4(t)
	f.injectReverseFailure()
	// Spoofing as VP5 redirects replies around the failure, revealing
	// that the forward path is intact all the way to AS4.
	rep := f.pr.SpoofedTraceroute(f.vp1, f.top.Router(f.dst).Addr, f.vp5)
	if !rep.ReachedDst {
		t.Fatalf("spoofed traceroute should reach dst: %+v", rep.Hops)
	}
	if got := rep.ASPath(); !got.Equal(topo.Path{1, 2, 3, 4}) {
		t.Fatalf("AS path = %v", got)
	}
}

func TestSpoofedPingIsolatesDirection(t *testing.T) {
	f := buildFig4(t)
	f.injectReverseFailure()
	addr := f.top.Router(f.dst).Addr
	// Forward direction works: probes from vp1 spoofed as vp5 draw
	// replies at vp5.
	if rep := f.pr.SpoofedPing(f.vp1, addr, f.vp5); !rep.OK {
		t.Fatalf("spoofed ping via vp5 should succeed: %+v", rep)
	}
	// Reverse direction broken: probes from vp5 spoofed as vp1 never
	// arrive back at vp1.
	if rep := f.pr.SpoofedPing(f.vp5, addr, f.vp1); rep.OK {
		t.Fatal("reply to vp1 should be lost")
	}
}

func TestTracerouteIntoBlackhole(t *testing.T) {
	f := buildFig4(t)
	// Bidirectional blackhole of all transit in AS3.
	f.pl.AddFailure(dataplane.Rule{AtAS: 3, TransitOnly: true})
	rep := f.pr.Traceroute(f.vp1, f.top.Router(f.dst).Addr)
	if rep.ReachedDst {
		t.Fatal("should not reach dst")
	}
	last, ok := rep.LastResponsive()
	if !ok || last.AS != 2 {
		t.Fatalf("last responsive = %+v, want AS2", last)
	}
}

func TestTracerouteSkipsUnresponsiveMiddleHop(t *testing.T) {
	f := buildFig4(t)
	// Silence AS2's hub router; traceroute should star it and continue.
	f.top.Router(f.top.AS(2).Routers[0]).Responsive = false
	rep := f.pr.Traceroute(f.vp1, f.top.Router(f.dst).Addr)
	if !rep.ReachedDst {
		t.Fatalf("should reach dst despite silent hop: %+v", rep.Hops)
	}
	stars := 0
	for _, h := range rep.Hops {
		if h.Star {
			stars++
		}
	}
	if stars == 0 {
		t.Fatal("expected at least one star for the silent router")
	}
}

func TestReverseTraceroute(t *testing.T) {
	f := buildFig4(t)
	rep, ok := f.pr.ReverseTraceroute(f.dst, f.vp1)
	if !ok || !rep.ReachedDst {
		t.Fatalf("reverse traceroute failed: %v %v", rep, ok)
	}
	if got := rep.ASPath(); !got.Equal(topo.Path{4, 3, 2, 1}) {
		t.Fatalf("reverse AS path = %v", got)
	}
	// During the reverse failure it must fail — that's why isolation
	// falls back to the historical atlas.
	f.injectReverseFailure()
	if _, ok := f.pr.ReverseTraceroute(f.dst, f.vp1); ok {
		t.Fatal("reverse traceroute should fail during reverse failure")
	}
}

func TestReverseTracerouteUnresponsiveSource(t *testing.T) {
	f := buildFig4(t)
	f.top.Router(f.dst).Responsive = false
	if _, ok := f.pr.ReverseTraceroute(f.dst, f.vp1); ok {
		t.Fatal("should fail for unresponsive far end")
	}
}

func TestProbeAccounting(t *testing.T) {
	f := buildFig4(t)
	f.pr.Ping(f.vp1, f.top.Router(f.dst).Addr)
	if f.pr.Sent != 1 { // one echo request; the reply is not ours
		t.Fatalf("ping cost = %d, want 1", f.pr.Sent)
	}
	f.pr.ResetSent()
	f.pr.ReverseTraceroute(f.dst, f.vp1)
	if f.pr.Sent != optionProbeCost {
		t.Fatalf("reverse traceroute cost = %d, want %d", f.pr.Sent, optionProbeCost)
	}
	if got := f.pr.ResetSent(); got != optionProbeCost {
		t.Fatalf("ResetSent = %d", got)
	}
	if f.pr.Sent != 0 {
		t.Fatal("Sent not reset")
	}
	rep := f.pr.Traceroute(f.vp1, f.top.Router(f.dst).Addr)
	if f.pr.Sent != len(rep.Hops) || len(rep.Hops) < 4 { // one probe per TTL
		t.Fatalf("traceroute cost = %d for %d hops", f.pr.Sent, len(rep.Hops))
	}
}
