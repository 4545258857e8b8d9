package probe

import (
	"net/netip"
	"reflect"
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/topo"
)

// A held Pinger or Tracer is the one-shot primitive with its flows kept. The
// tests below hold one across route and rule changes that move the
// responder under it and compare every report, and the packets charged, with
// what the one-shot call reports on a twin plane and prober over the same
// engine.

type heldWorld struct {
	*fig4
	twinPl *dataplane.Plane
	twin   *Prober
}

func newHeldWorld(t *testing.T) *heldWorld {
	f := buildFig4(t)
	pl := dataplane.New(f.top, f.eng)
	return &heldWorld{fig4: f, twinPl: pl, twin: New(f.top, pl, f.clk)}
}

// rule installs r on both planes and returns what lifts it again.
func (w *heldWorld) rule(r dataplane.Rule) (lift func()) {
	id, twinID := w.pl.AddFailure(r), w.twinPl.AddFailure(r)
	return func() {
		w.pl.RemoveFailure(id)
		w.twinPl.RemoveFailure(twinID)
	}
}

// hijack has asn originate AS4's production /24 (or stop), converged.
func (w *heldWorld) hijack(t *testing.T, asn topo.ASN, on bool) {
	t.Helper()
	if on {
		w.eng.Announce(asn, topo.ProductionPrefix(4), bgp.OriginConfig{})
	} else {
		w.eng.Withdraw(asn, topo.ProductionPrefix(4))
	}
	if !w.eng.Converge(1_000_000) {
		t.Fatal("no convergence")
	}
}

// TestPingerReplyFollowsTheResponder: the echo request of a held Pinger is
// delivered somewhere else after a route change; the reply must be walked
// from there, not along the flow the last responder's replies took.
func TestPingerReplyFollowsTheResponder(t *testing.T) {
	w := newHeldWorld(t)
	target := topo.ProductionAddr(4) // hosted by whoever originates the longest match
	pg := w.pr.Pinger(w.vp1, target)
	ping := func(when string) PingReport {
		t.Helper()
		got, want := pg.Ping(), w.twin.Ping(w.vp1, target)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\nheld     %+v\none-shot %+v", when, got, want)
		}
		if w.pr.Sent != w.twin.Sent {
			t.Fatalf("%s: held charged %d packets, one-shot %d", when, w.pr.Sent, w.twin.Sent)
		}
		return got
	}
	if rep := ping("AS4 hosts the target"); !rep.OK || rep.Forward.LastAS != 4 {
		t.Fatalf("baseline: %+v", rep)
	}
	ping("asked again")

	// AS5 draws the target to itself and cannot answer toward AS1.
	w.hijack(t, 5, true)
	lift := w.rule(dataplane.BlackholeASTowards(5, topo.Block(1)))
	if rep := ping("AS5 hosts the target"); rep.Forward.LastAS != 5 || !rep.Responded || rep.ReverseOK {
		t.Fatalf("AS5 answering into its own blackhole: %+v", rep)
	}
	lift()
	if rep := ping("AS5's blackhole lifted"); !rep.OK || rep.Reverse.Hops[0].AS != 5 {
		t.Fatalf("AS5 answering: %+v", rep)
	}
	w.hijack(t, 5, false)
	if rep := ping("AS4 hosts the target again"); !rep.OK || rep.Reverse.Hops[0].AS != 4 {
		t.Fatalf("back at AS4: %+v", rep)
	}
}

// TestTracerReplyFollowsTheHop: a held Tracer's probe at one TTL meets a
// different router after a route change — dying there, or delivered there
// where it used to die one router further — and the reply must be that
// responder's.
func TestTracerReplyFollowsTheHop(t *testing.T) {
	w := newHeldWorld(t)
	target := topo.ProductionAddr(4)
	tr := w.pr.Tracer(w.vp1, target)
	trace := func(when string) TracerouteReport {
		t.Helper()
		got, want := tr.Trace(), w.twin.Traceroute(w.vp1, target)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\nheld     %+v\none-shot %+v", when, got, want)
		}
		if w.pr.Sent != w.twin.Sent {
			t.Fatalf("%s: held charged %d packets, one-shot %d", when, w.pr.Sent, w.twin.Sent)
		}
		return got
	}
	base := trace("AS4 hosts the target")
	if !base.ReachedDst || !base.ASPath().Equal(topo.Path{1, 2, 3, 4}) {
		t.Fatalf("baseline: %+v", base)
	}
	trace("asked again")

	// AS3's hub becomes the destination: the TTL that died at AS3's far
	// border is now delivered at the hub, which answers with the target's
	// address as source — which AS2 is made to drop.
	w.hijack(t, 3, true)
	lift := w.rule(dataplane.Rule{AtAS: 2, SrcWithin: topo.ProductionPrefix(4)})
	if rep := trace("AS3 hosts the target, its echo replies dropped"); rep.ReachedDst || len(rep.Hops) >= len(base.Hops) {
		t.Fatalf("%+v: want the trace to end in silence at AS3's hub", rep)
	}
	lift()
	viaAS3 := trace("AS3 hosts the target")
	if last := viaAS3.Hops[len(viaAS3.Hops)-1]; !viaAS3.ReachedDst || last.AS != 3 {
		t.Fatalf("%+v: want the target reached at AS3", viaAS3)
	}

	// AS5 takes over, behind a blackhole toward AS1: the same TTLs now die
	// at other routers, and the destination answers from another one.
	w.hijack(t, 3, false)
	w.hijack(t, 5, true)
	lift = w.rule(dataplane.BlackholeASTowards(5, topo.Block(1)))
	rep := trace("AS5 hosts the target, blackholed toward AS1")
	if rep.ReachedDst || !rep.ASPath().Equal(topo.Path{1, 2}) {
		t.Fatalf("%+v: want AS1 and AS2 hops, then silence", rep)
	}
	lift()
	if rep := trace("AS5's blackhole lifted"); !rep.ReachedDst || !rep.ASPath().Equal(topo.Path{1, 2, 5}) {
		t.Fatalf("%+v: want the target reached at AS5", rep)
	}
}

// TestReplyFlowIsHeldPerRouterAndSource: the held flow is re-resolved when
// either half of the responder's identity changes. The router changing is
// what the two tests above meet; the same router answering from another
// address at the same TTL needs a route to it to shorten while it becomes
// the destination's host, which fig. 4 cannot do, so the helper is asked
// directly.
func TestReplyFlowIsHeldPerRouterAndSource(t *testing.T) {
	f := buildFig4(t)
	hub3, hub5 := f.top.AS(3).Routers[0], f.vp5
	recv := f.top.Router(f.vp1).Addr
	// AS2 drops what is sourced from AS4's production /24 and nothing else.
	f.pl.AddFailure(dataplane.Rule{AtAS: 2, SrcWithin: topo.ProductionPrefix(4)})
	var rf replyFlow
	arrives := func(from topo.RouterID, src netip.Addr) bool {
		rev := rf.toward(f.pl, from, src, recv).Forward(0)
		return rev.Delivered()
	}
	for _, step := range []struct {
		from topo.RouterID
		src  netip.Addr
		want bool
	}{
		{hub3, f.top.Router(hub3).Addr, true},
		{hub3, topo.ProductionAddr(4), false}, // same router, other source
		{hub3, topo.ProductionAddr(4), false},
		{hub3, f.top.Router(hub3).Addr, true},
		{hub5, f.top.Router(hub3).Addr, true}, // other router, same source
		{hub5, topo.ProductionAddr(4), false},
	} {
		if got := arrives(step.from, step.src); got != step.want {
			t.Fatalf("reply from router %d sourced %v: arrived = %v, want %v", step.from, step.src, got, step.want)
		}
	}
}
