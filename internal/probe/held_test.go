package probe

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/obs"
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
	rules  uint64 // rule changes, which no plane counts
}

func newHeldWorld(t *testing.T) *heldWorld {
	f := buildFig4(t)
	pl := dataplane.New(f.top, f.eng)
	return &heldWorld{fig4: f, twinPl: pl, twin: New(f.top, pl, f.clk)}
}

// rule installs r on both planes and returns what lifts it again.
func (w *heldWorld) rule(r dataplane.Rule) (lift func()) {
	id, twinID := w.pl.AddFailure(r), w.twinPl.AddFailure(r)
	w.rules++
	return func() {
		w.rules++
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

// A held probe answers from what it last measured while the walk-cache
// slots it read Stand (see Pinger.Ping and Tracer.Trace), and a Tracer or
// ReverseTracer hands back the hops slice it found last while the path is
// unchanged. heldFuzz holds a set of each on one plane and asks the
// one-shot primitive on a twin plane over the same engine and topology, so
// every route change, rule change and router flag reaches both; after every
// operation of a byte-stream program it compares the reports, the packets
// charged and every metric of both planes and probers.
type heldFuzz struct {
	*heldWorld
	reg, twinReg *obs.Registry
	pings        []heldPing
	traces       []heldTrace
	reverses     []heldReverse
	lifts        []func()
	// repeats counts, for pings [0] and traces [1], the asks a repeat
	// answered, and rescued those of them that followed a route or rule
	// change since the probe's last ask — changes that left its slots
	// alone — so the seeded test can tell the hold was exercised.
	repeats, rescued [2]int
}

// reading is what the plane's routes and rules were when a probe was asked.
type reading struct{ rib, rules uint64 }

type heldPing struct {
	pg      Pinger
	src     topo.RouterID
	srcAddr netip.Addr // valid: the ping is PingerFromAddr's
	dst     netip.Addr
	at      reading
}

type heldTrace struct {
	tr  Tracer
	src topo.RouterID
	dst netip.Addr
	at  reading
}

type heldReverse struct {
	rt       ReverseTracer
	from, to topo.RouterID
}

func newHeldFuzz(t *testing.T) *heldFuzz {
	w := &heldFuzz{heldWorld: newHeldWorld(t), reg: obs.New(), twinReg: obs.New()}
	w.pl.Instrument(w.reg)
	w.pr.Instrument(w.reg)
	w.twinPl.Instrument(w.twinReg)
	w.twin.Instrument(w.twinReg)
	hub := func(asn topo.ASN) topo.RouterID { return w.top.AS(asn).Routers[0] }
	addr := func(asn topo.ASN) netip.Addr { return w.top.Router(hub(asn)).Addr }
	dsts := []netip.Addr{addr(4), topo.ProductionAddr(4), addr(3), addr(5), addr(1)}
	for _, src := range []topo.RouterID{w.vp1, w.vp5, hub(3)} {
		for _, dst := range dsts {
			w.pings = append(w.pings, heldPing{pg: w.pr.Pinger(src, dst), src: src, dst: dst})
		}
		w.traces = append(w.traces, heldTrace{tr: w.pr.Tracer(src, topo.ProductionAddr(4)), src: src, dst: topo.ProductionAddr(4)})
	}
	// Pings from the unused half of a production prefix, as a sentinel
	// sends them: the replies route toward AS1's /24, not its router.
	for _, dst := range dsts[:2] {
		src := topo.ProductionAddr(1)
		w.pings = append(w.pings, heldPing{pg: w.pr.PingerFromAddr(w.vp5, src, dst), src: w.vp5, srcAddr: src, dst: dst})
	}
	w.traces = append(w.traces, heldTrace{tr: w.pr.Tracer(w.vp1, addr(5)), src: w.vp1, dst: addr(5)})
	for _, r := range [][2]topo.RouterID{{hub(4), w.vp1}, {hub(5), w.vp1}, {hub(3), w.vp5}, {hub(4), w.vp5}} {
		w.reverses = append(w.reverses, heldReverse{w.pr.ReverseTracer(r[0], r[1]), r[0], r[1]})
	}
	return w
}

// reading reads the plane's routes and rules.
func (w *heldFuzz) reading() reading { return reading{w.eng.RIBVersion(), w.rules} }

// count tallies an ask of a probe of kind k (0: ping, 1: trace) last asked
// at *at, which a repeat answers when repeats, and notes the reading.
func (w *heldFuzz) count(k int, at *reading, repeats bool) {
	now := w.reading()
	if repeats {
		w.repeats[k]++
		if *at != now {
			w.rescued[k]++
		}
	}
	*at = now
}

// oneShotPing is the one-shot ping over the i-th held ping's header on the
// given prober.
func (w *heldFuzz) oneShotPing(p *Prober, i int) PingReport {
	h := &w.pings[i]
	if h.srcAddr.IsValid() {
		return p.PingFromAddr(h.src, h.srcAddr, h.dst)
	}
	return p.Ping(h.src, h.dst)
}

// ping asks the i-th held ping and its one-shot twin.
func (w *heldFuzz) ping(t *testing.T, i int) {
	t.Helper()
	h := &w.pings[i]
	// stands costs what the walk it may spare would cost, and asking it
	// twice costs what asking once does.
	w.count(0, &h.at, h.pg.stands())
	want := w.oneShotPing(w.twin, i)
	if got := h.pg.Ping(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ping %d (%d→%v):\nheld     %+v\none-shot %+v", i, h.src, h.dst, got, want)
	}
}

// trace asks the i-th held traceroute and its one-shot twin.
func (w *heldFuzz) trace(t *testing.T, i int) {
	t.Helper()
	h := &w.traces[i]
	w.count(1, &h.at, h.tr.stands())
	got, want := h.tr.Trace(), w.twin.Traceroute(h.src, h.dst)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traceroute %d→%v:\nheld     %+v\none-shot %+v", h.src, h.dst, got, want)
	}
}

// same fails unless both sides have charged as many packets and every
// metric of the held side's plane and prober equals its twin's.
func (w *heldFuzz) same(t *testing.T, after string) {
	t.Helper()
	if w.pr.Sent != w.twin.Sent {
		t.Fatalf("after %s: held side charged %d packets, one-shot side %d", after, w.pr.Sent, w.twin.Sent)
	}
	got, want := w.reg.Snapshot().Metrics, w.twinReg.Snapshot().Metrics
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("after %s: held side %+v, one-shot side %+v", after, got[i], want[i])
			}
		}
		t.Fatalf("after %s: %d series on the held side, %d on the one-shot side", after, len(got), len(want))
	}
}

// run interprets data as a program, one opcode byte and its operands at a
// time; a program that runs dry reads zeros. The seeded test and the fuzz
// target share it.
func (w *heldFuzz) run(t *testing.T, data []byte) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	pick := func(n int) int { return next() % n }
	as := func() topo.ASN { return topo.ASN(1 + pick(5)) }
	router := func() *topo.Router { return w.top.Router(w.top.AS(as()).Routers[0]) }
	for len(data) > 0 {
		var did string
		switch op := pick(13); op {
		case 0, 1, 2:
			did = "a ping"
			w.ping(t, pick(len(w.pings)))
		case 3:
			// The round: every held ping once, as a monitor asks them.
			did = "a round"
			for i := range w.pings {
				w.ping(t, i)
			}
		case 4:
			// A traceroute, or every held one once, as the atlas
			// refreshes them.
			if i := pick(len(w.traces) + 1); i < len(w.traces) {
				did = "a traceroute"
				w.trace(t, i)
			} else {
				did = "an atlas round"
				for i := range w.traces {
					w.trace(t, i)
				}
			}
		case 5:
			did = "a reverse traceroute"
			h := &w.reverses[pick(len(w.reverses))]
			got, gotOK := h.rt.Trace()
			want, wantOK := w.twin.ReverseTraceroute(h.from, h.to)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("reverse traceroute %d→%d:\nheld     %v %+v\none-shot %v %+v", h.from, h.to, gotOK, got, wantOK, want)
			}
		case 6:
			// AS4's production /24 announced plainly or poisoning a
			// transit AS, or drawn away by a hijacker; or VP1's router
			// addresses drawn to AS5 by a more-specific. Then converged,
			// or left a few events into its convergence.
			did = "an announcement"
			vp1Net := netip.PrefixFrom(w.top.Router(w.vp1).Addr, 24)
			switch k := pick(7); k {
			case 0, 1, 2:
				cfg := bgp.OriginConfig{}
				if k > 0 {
					cfg.Pattern = topo.Path{4, topo.ASN(1 + k), 4}
				}
				w.eng.Announce(4, topo.ProductionPrefix(4), cfg)
			case 3:
				w.eng.Announce([]topo.ASN{3, 5}[pick(2)], topo.ProductionPrefix(4), bgp.OriginConfig{})
			case 4:
				w.eng.Withdraw([]topo.ASN{3, 5}[pick(2)], topo.ProductionPrefix(4))
			case 5:
				w.eng.Announce(5, vp1Net, bgp.OriginConfig{})
			case 6:
				w.eng.Withdraw(5, vp1Net)
			}
			if n := pick(4); n > 0 {
				for range n {
					w.clk.Step()
				}
			} else if !w.eng.Converge(1_000_000) {
				t.Fatal("no convergence")
			}
		case 7:
			did = "convergence"
			if !w.eng.Converge(1_000_000) {
				t.Fatal("no convergence")
			}
		case 8:
			did = "a blackhole"
			a, b := as(), as()
			r := []dataplane.Rule{
				dataplane.BlackholeAS(a),
				dataplane.BlackholeASTowards(a, topo.Block(b)),
				dataplane.DropASLink(a, b),
				{AtAS: a, SrcWithin: topo.ProductionPrefix(1)},
			}[pick(4)]
			w.lifts = append(w.lifts, w.rule(r))
		case 9:
			did = "a lossy AS"
			w.lifts = append(w.lifts, w.rule(dataplane.LossyAS(as(), float64(1+pick(9))/10, uint64(next()))))
		case 10:
			did = "a rule lifted"
			if len(w.lifts) > 0 {
				i := pick(len(w.lifts))
				w.lifts[i]()
				w.lifts = append(w.lifts[:i], w.lifts[i+1:]...)
			}
		case 11:
			// A router turns silent or answers again, or its rate limit
			// changes (0: none).
			r := router()
			if pick(2) == 0 {
				did = "a responsiveness flip"
				r.Responsive = !r.Responsive
			} else {
				did = "a rate limit"
				r.RateLimitPerRound = pick(3)
			}
		case 12:
			// A one-shot probe over a held probe's header, on the held
			// side's prober too: it walks the held probe's slot with
			// another Flow, re-walking it if it went stale.
			if i := pick(len(w.pings) + len(w.traces)); i < len(w.pings) {
				did = "a one-shot ping over a held one"
				if got, want := w.oneShotPing(w.pr, i), w.oneShotPing(w.twin, i); !reflect.DeepEqual(got, want) {
					t.Fatalf("one-shot ping %d:\nheld side %+v\ntwin      %+v", i, got, want)
				}
			} else {
				did = "a one-shot traceroute over a held one"
				h := &w.traces[i-len(w.pings)]
				if got, want := w.pr.Traceroute(h.src, h.dst), w.twin.Traceroute(h.src, h.dst); !reflect.DeepEqual(got, want) {
					t.Fatalf("one-shot traceroute %d→%v:\nheld side %+v\ntwin      %+v", h.src, h.dst, got, want)
				}
			}
		}
		w.same(t, did)
	}
}

// TestHeldProbesMatchOneShot replays seeded random programs and checks that
// they made held pings and held traces repeat, some of each across a route
// or rule change that left the slots they read alone.
func TestHeldProbesMatchOneShot(t *testing.T) {
	var repeats, rescued [2]int
	for seed := int64(1); seed <= 8; seed++ {
		w := newHeldFuzz(t)
		data := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(data)
		w.run(t, data)
		for k := range repeats {
			repeats[k] += w.repeats[k]
			rescued[k] += w.rescued[k]
		}
	}
	for k, kind := range []string{"ping", "trace"} {
		if rescued[k] == 0 {
			t.Errorf("%d held %ss repeated, none across a route or rule change", repeats[k], kind)
		}
	}
}

// FuzzHeldProbes hands the same interpreter to the fuzzer.
func FuzzHeldProbes(f *testing.F) {
	// The round three times: the second and third repeat.
	f.Add([]byte{3, 3, 3})
	// A blackhole toward AS1 at AS3 between two rounds, then lifted.
	f.Add([]byte{3, 8, 3, 2, 1, 3, 10, 0, 3})
	// A lossy AS2 under a round asked twice.
	f.Add([]byte{3, 9, 2, 4, 7, 3, 3, 10, 0, 3})
	// AS4's hub rate-limited to one answer a minute, pinged four times.
	f.Add([]byte{3, 11, 3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	// The target turns silent under a held ping and answers again.
	f.Add([]byte{0, 0, 11, 3, 0, 0, 0, 11, 3, 0, 0, 0})
	// AS2's hub, a hop of the trace from VP1, turns silent under it, then
	// answers again.
	f.Add([]byte{4, 0, 11, 1, 0, 4, 0, 11, 1, 0, 4, 0})
	// The production /24 hijacked by AS3, then by AS5 instead: the trace
	// from VP1 finds as many hops, ending at another router.
	f.Add([]byte{4, 0, 6, 3, 0, 0, 4, 0, 6, 4, 0, 0, 6, 3, 1, 0, 4, 0})
	// A poison of AS3 under traces from every vantage point.
	f.Add([]byte{4, 0, 4, 1, 4, 2, 6, 2, 0, 4, 0, 4, 1, 4, 2})
	// VP1's router addresses drawn to AS5: the reverse path from AS4 ends
	// at another router after as many hops; then the more-specific goes.
	f.Add([]byte{5, 0, 6, 5, 0, 5, 0, 6, 6, 0, 5, 0})
	// Mid-convergence rounds.
	f.Add([]byte{3, 6, 1, 2, 3, 3, 7, 3})
	// A poison of AS2 on AS4's production /24 between two rounds and two
	// atlas rounds: the pings and traces to router addresses repeat.
	f.Add([]byte{3, 4, 4, 6, 1, 0, 3, 4, 4})
	// VP1's router addresses drawn to AS5, then a one-shot ping (and a
	// one-shot traceroute) over the first held ping's (trace's) header
	// re-walks the reply slots the held one read; it must not repeat.
	f.Add([]byte{0, 0, 4, 0, 6, 5, 0, 12, 0, 12, 17, 0, 0, 4, 0})
	seeded := make([]byte, 600)
	rand.New(rand.NewSource(33)).Read(seeded)
	f.Add(seeded)
	f.Fuzz(func(t *testing.T, data []byte) {
		newHeldFuzz(t).run(t, data)
	})
}
