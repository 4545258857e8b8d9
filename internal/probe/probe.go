// Package probe implements the measurement primitives LIFEGUARD's isolation
// subsystem consumes: ping, traceroute, spoofed ping, spoofed traceroute,
// and (simulated) reverse traceroute. Probes are real packets walked through
// the data plane, so replies traverse the actual reverse path — a traceroute
// across a reverse-path failure shows exactly the misleading truncation of
// Fig. 4. Routers can be unresponsive or rate-limited, which the atlas must
// account for when interpreting silence.
package probe

import (
	"net/netip"
	"slices"
	"time"

	"lifeguard/internal/dataplane"
	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

const (
	// maxTTL bounds traceroute depth.
	maxTTL = 32
	// starLimit is how many consecutive unresponsive hops a traceroute
	// tolerates before giving up.
	starLimit = 3
	// optionProbeCost is the amortized number of IP-option packets a
	// reverse traceroute costs (§5.4 reports ~10 with caching).
	optionProbeCost = 10
	// rateWindow is the window of virtual time over which
	// Router.RateLimitPerRound applies.
	rateWindow = time.Minute
)

// Prober issues measurements over a data plane. The Sent counter tallies
// probe packets originated by the measurement hosts (echo requests, TTL
// probes, and amortized IP-option probes); replies generated by routers and
// targets are not charged, matching how the paper accounts overhead (§5.4).
type Prober struct {
	top *topo.Topology
	pl  *dataplane.Plane
	clk *simclock.Scheduler

	// Sent counts probe packets issued since construction (or Reset).
	Sent int

	rate map[topo.RouterID]*rateState
	// onceReplies and onceSteps are the reply-flow and step buffers one-shot
	// traceroutes take turns with, and onceHops the hops plain Traceroute
	// hands back (see traceOnce).
	onceReplies []replyFlow
	onceSteps   []traceStep
	onceHops    []Hop
	obs         proberObs
}

// proberObs holds the prober's metric handles; all nil until Instrument.
type proberObs struct {
	probes      [len(primitiveNames)]*obs.Counter // by primitive
	packets     *obs.Counter
	rateLimited *obs.Counter
}

// primitive names a measurement primitive; it indexes the per-primitive
// counter, so counting a probe is an array read, not a lookup by name.
type primitive uint8

const (
	primPing primitive = iota
	primSpoofedPing
	primPingFromAddr
	primTraceroute
	primSpoofedTraceroute
	primReverseTraceroute
)

// primitiveNames are the label values of the per-primitive counter.
var primitiveNames = [...]string{
	primPing: "ping", primSpoofedPing: "spoofed-ping", primPingFromAddr: "ping-from-addr",
	primTraceroute: "traceroute", primSpoofedTraceroute: "spoofed-traceroute",
	primReverseTraceroute: "reverse-traceroute",
}

// Instrument registers the prober's metrics: probes per primitive, probe
// packets charged, and rate-limit rejections.
func (p *Prober) Instrument(reg *obs.Registry) {
	reg.Describe("lifeguard_probe_probes_total", "measurement primitives issued, by primitive")
	reg.Describe("lifeguard_probe_packets_total", "probe packets charged to the measurement hosts")
	reg.Describe("lifeguard_probe_rate_limited_total", "probe replies withheld by router rate limits")
	for prim, name := range primitiveNames {
		p.obs.probes[prim] = reg.Counter("lifeguard_probe_probes_total", obs.L("primitive", name))
	}
	p.obs.packets = reg.Counter("lifeguard_probe_packets_total")
	p.obs.rateLimited = reg.Counter("lifeguard_probe_rate_limited_total")
}

// charge accounts n probe packets to Sent and the packet counter.
func (p *Prober) charge(n int) {
	p.Sent += n
	p.obs.packets.Add(int64(n))
}

type rateState struct {
	windowStart time.Duration
	count       int
}

// New returns a Prober over the given plane.
func New(top *topo.Topology, pl *dataplane.Plane, clk *simclock.Scheduler) *Prober {
	return &Prober{
		top: top, pl: pl, clk: clk,
		rate: make(map[topo.RouterID]*rateState),
	}
}

// ResetSent zeroes the probe-packet counter and returns the prior value.
func (p *Prober) ResetSent() int {
	n := p.Sent
	p.Sent = 0
	return n
}

// Charge adds n packets to the probe accounting without sending anything —
// callers use it to model measurement costs the simulator abstracts away
// (e.g. the extra IP-option probes of a from-scratch reverse traceroute).
func (p *Prober) Charge(n int) { p.charge(n) }

// responds decides whether the entity a probe reached answers it right now:
// a router (r non-nil) may be configured silent or rate-limited; a
// prefix-hosted end host (nil) always answers. It consumes rate budget when
// it returns true.
func (p *Prober) responds(r *topo.Router) bool {
	if r == nil {
		return true // end host in an announced prefix
	}
	if !r.Responsive {
		return false
	}
	if r.RateLimitPerRound <= 0 {
		return true
	}
	st := p.rate[r.ID]
	if st == nil {
		st = &rateState{windowStart: p.clk.Now()}
		p.rate[r.ID] = st
	}
	if p.clk.Now()-st.windowStart >= rateWindow {
		st.windowStart = p.clk.Now()
		st.count = 0
	}
	if st.count >= r.RateLimitPerRound {
		p.obs.rateLimited.Inc()
		return false
	}
	st.count++
	return true
}

// replyFlow holds the flow of the replies to one probe for as long as the
// same responder sends them: a reply's header is (responder's router, its
// source address, the receiver), and a probe sent again usually meets the
// responder it met before. The zero value holds nothing — no reply is ever
// sourced from the zero Addr.
type replyFlow struct {
	flow dataplane.Flow
	from topo.RouterID
	src  netip.Addr
}

// toward returns the flow of replies sourced src, injected at from, bound
// for dst, re-resolving it when the responder is not the one it holds.
func (r *replyFlow) toward(pl *dataplane.Plane, from topo.RouterID, src, dst netip.Addr) *dataplane.Flow {
	if r.from != from || r.src != src {
		r.flow, r.from, r.src = pl.Flow(from, src, dst), from, src
	}
	return &r.flow
}

// PingReport dissects one ping exchange.
type PingReport struct {
	// OK means the receiver got the echo reply.
	OK bool
	// ForwardOK means the probe reached the destination.
	ForwardOK bool
	// Responded means the destination generated a reply (responsive and
	// under its rate limit).
	Responded bool
	// ReverseOK means the reply reached the receiver.
	ReverseOK bool
	// Forward and Reverse are the underlying walks, held by value so a
	// ping allocates nothing of its own (Reverse is the zero Result unless
	// Responded). Their Hops are shared with the data plane: read-only.
	Forward, Reverse dataplane.Result
}

// Pinger is one ping, asked as often as its holder likes: an echo request
// from a fixed vantage point to a fixed destination, the reply returning to
// a fixed address. It holds what does not change between two pings — the
// destination's router record and the data-plane flows of the request and
// of the reply — so a monitor pair pays for them once, and it keeps its
// last report, which it repeats while nothing the report read has changed
// (see Ping). Ping, SpoofedPing and PingFromAddr are a Pinger made, asked
// once and dropped.
type Pinger struct {
	p            *Prober
	prim         primitive
	replyTo, dst netip.Addr
	target       *topo.Router // dst's router; nil for a prefix-hosted address
	fwd          dataplane.Flow
	rev          replyFlow
	// last is the last report, valid when held; Ping may repeat it.
	last PingReport
	held bool
}

func (p *Prober) pinger(prim primitive, src topo.RouterID, replyTo, dst netip.Addr) Pinger {
	target, _ := p.top.RouterByAddr(dst)
	return Pinger{p: p, prim: prim, replyTo: replyTo, dst: dst, target: target, fwd: p.pl.Flow(src, replyTo, dst)}
}

// Pinger returns the ping Ping(src, dst) sends, to be held and repeated.
func (p *Prober) Pinger(src topo.RouterID, dst netip.Addr) Pinger {
	return p.pinger(primPing, src, p.top.Router(src).Addr, dst)
}

// PingerFromAddr returns the ping PingFromAddr(src, srcAddr, dst) sends, to
// be held and repeated.
func (p *Prober) PingerFromAddr(src topo.RouterID, srcAddr, dst netip.Addr) Pinger {
	return p.pinger(primPingFromAddr, src, srcAddr, dst)
}

// Ping sends an echo request from src to dst; the reply returns to src.
func (p *Prober) Ping(src topo.RouterID, dst netip.Addr) PingReport {
	pg := p.Pinger(src, dst)
	return pg.Ping()
}

// SpoofedPing sends an echo request from src to dst with the source address
// of spoofAs, so the reply (if any) is received by spoofAs. Sending spoofed
// probes is how LIFEGUARD isolates the failing direction (§4.1.2).
func (p *Prober) SpoofedPing(src topo.RouterID, dst netip.Addr, spoofAs topo.RouterID) PingReport {
	pg := p.pinger(primSpoofedPing, src, p.top.Router(spoofAs).Addr, dst)
	return pg.Ping()
}

// PingFromAddr sends an echo request injected at src carrying srcAddr as
// its source, so the reply routes toward srcAddr's prefix. LIFEGUARD pings
// from the unused half of its sentinel prefix this way: replies return via
// the unpoisoned sentinel route, revealing whether the avoided path has
// healed (§4.2).
func (p *Prober) PingFromAddr(src topo.RouterID, srcAddr, dst netip.Addr) PingReport {
	pg := p.PingerFromAddr(src, srcAddr, dst)
	return pg.Ping()
}

// Ping sends the echo request and walks the reply, if the destination
// sends one, toward the address the request carried as its source.
//
// While the destination would decide as it did and the request's flow and,
// if it was answered, the reply's flow Stand, Ping returns the last report
// and counts its packets with Flow.Repeat: the walks would be hits with the
// same Results, and the reply flow is the one the same responder's replies
// took. Whether the destination answers is read live, since its
// configuration can change under a held ping; a rate-limited one is asked
// every time, because asking spends its budget. The destination is judged
// first and the reply flow last, so that a flow is checked only where the
// walk would ask it.
func (pg *Pinger) Ping() PingReport {
	p := pg.p
	p.obs.probes[pg.prim].Inc()
	p.charge(1)
	if pg.stands() {
		pg.fwd.Repeat(&pg.last.Forward)
		if pg.last.Responded {
			pg.rev.flow.Repeat(&pg.last.Reverse)
		}
		return pg.last
	}
	pg.last, pg.held = pg.ping(), true
	return pg.last
}

// stands reports whether the last report would be found again: see Ping.
func (pg *Pinger) stands() bool {
	return pg.held && decidesAlike(pg.target, pg.last.ForwardOK, pg.last.Responded) &&
		pg.fwd.Stands() && (!pg.last.Responded || pg.rev.flow.Stands())
}

// decidesAlike reports whether a responder r that was asked (or not) and
// answered (or not) would answer alike if asked again, at no cost to any
// rate budget: one not asked is not asked again, an end host (nil) always
// answers, a silent router never does and one without a rate limit always
// does. A rate-limited router has to be asked.
func decidesAlike(r *topo.Router, asked, answered bool) bool {
	switch {
	case !asked:
		return true
	case r == nil:
		return answered
	case !r.Responsive:
		return !answered
	case r.RateLimitPerRound <= 0:
		return answered
	}
	return false
}

// ping is one exchange, walked.
func (pg *Pinger) ping() (rep PingReport) {
	p := pg.p
	rep.Forward = pg.fwd.Forward(0)
	if !rep.Forward.Delivered() {
		return rep
	}
	rep.ForwardOK = true
	if !p.responds(pg.target) {
		return rep
	}
	rep.Responded = true
	rep.Reverse = pg.rev.toward(p.pl, rep.Forward.LastRouter, pg.dst, pg.replyTo).Forward(0)
	if rep.Reverse.Delivered() {
		rep.ReverseOK = true
		rep.OK = true
	}
	return rep
}

// Hop is one line of traceroute output.
type Hop struct {
	Star   bool // no reply for this TTL
	Addr   netip.Addr
	Router topo.RouterID
	AS     topo.ASN
}

// TracerouteReport is the outcome of a (possibly spoofed) traceroute.
type TracerouteReport struct {
	Hops []Hop
	// ReachedDst means the destination itself answered the final probe.
	ReachedDst bool
}

// LastResponsive returns the last non-star hop and false if none exists.
func (t *TracerouteReport) LastResponsive() (Hop, bool) {
	for i := len(t.Hops) - 1; i >= 0; i-- {
		if !t.Hops[i].Star {
			return t.Hops[i], true
		}
	}
	return Hop{}, false
}

// ASPath returns the distinct ASes of responsive hops, in order.
func (t *TracerouteReport) ASPath() topo.Path {
	var out topo.Path
	for _, h := range t.Hops {
		if h.Star {
			continue
		}
		if len(out) == 0 || out[len(out)-1] != h.AS {
			out = append(out, h.AS)
		}
	}
	return out
}

// Tracer is one traceroute, asked as often as its holder likes: TTL-limited
// probes from a fixed vantage point to a fixed destination, the replies
// returning to a fixed receiver. It holds the destination's router record,
// the flow of the probes (one header at every TTL) and, per TTL, the flow of
// that position's replies, so the atlas pays for them once per pair. It
// also keeps the hops it last found and hands back that slice while a trace
// finds the same ones, so an unchanged path is stored once; the slice the
// last change displaced, handed back when the path flips back to it; and
// the step each TTL took, so that a trace nothing has changed under repeats
// whole (see Trace). Traceroute and SpoofedTraceroute are a Tracer made,
// asked once and dropped.
type Tracer struct {
	p             *Prober
	prim          primitive
	dst, recvAddr netip.Addr
	target        *topo.Router // dst's router; nil for a prefix-hosted address
	fwd           dataplane.Flow
	replies       []replyFlow // replies[ttl-1]: the replies to the TTL-ttl probe
	steps         []traceStep // steps[ttl-1]: what the last trace's TTL-ttl probe met
	// last is the hops the last trace found; prev is the slice last
	// displaced when the hops last changed, handed back if they change
	// back (a poison lifted, a failure healed).
	last, prev []Hop
	reached    bool
}

// traceStep is one TTL of a trace: the probe's fate, the responder asked
// (nil: an end host) if one was, whether it answered, and the reply's fate
// if it did.
type traceStep struct {
	fwd, rev dataplane.Result
	who      *topo.Router
	asked    bool
	answered bool
}

func (p *Prober) tracer(prim primitive, src topo.RouterID, dst netip.Addr, recv topo.RouterID) Tracer {
	target, _ := p.top.RouterByAddr(dst)
	recvAddr := p.top.Router(recv).Addr
	return Tracer{p: p, prim: prim, dst: dst, recvAddr: recvAddr, target: target, fwd: p.pl.Flow(src, recvAddr, dst)}
}

// Tracer returns the traceroute Traceroute(src, dst) runs, to be held and
// repeated.
func (p *Prober) Tracer(src topo.RouterID, dst netip.Addr) Tracer {
	return p.tracer(primTraceroute, src, dst, src)
}

// Traceroute measures the forward path src→dst; TTL-exceeded replies return
// to src, so a broken reverse path from an intermediate router shows as "*".
// Its Hops are the prober's: they stay valid until the prober's next
// Traceroute, so a caller that keeps them copies them.
func (p *Prober) Traceroute(src topo.RouterID, dst netip.Addr) TracerouteReport {
	return p.traceOnce(primTraceroute, src, dst, src)
}

// SpoofedTraceroute measures src→dst while directing all replies to recv
// (the probes carry recv's source address). LIFEGUARD uses it to measure
// the working direction of a path whose other direction has failed, and
// keeps that path, so its Hops are its own.
func (p *Prober) SpoofedTraceroute(src topo.RouterID, dst netip.Addr, recv topo.RouterID) TracerouteReport {
	return p.traceOnce(primSpoofedTraceroute, src, dst, recv)
}

// traceOnce runs a Tracer that is dropped afterwards. Its reply flows and
// steps serve one trace, so it borrows the prober's buffers for them instead
// of growing its own. A fresh Tracer has no last trace to repeat, so this is
// Trace without the repeat; a plain traceroute's hops go into onceHops, a
// spoofed one's into a slice of their own.
func (p *Prober) traceOnce(prim primitive, src topo.RouterID, dst netip.Addr, recv topo.RouterID) TracerouteReport {
	tr := p.tracer(prim, src, dst, recv)
	tr.replies, tr.steps = p.onceReplies[:0], p.onceSteps[:0]
	p.obs.probes[prim].Inc()
	var rep TracerouteReport
	if prim == primTraceroute {
		p.onceHops, rep.ReachedDst = tr.trace(p.onceHops[:0])
		rep.Hops = p.onceHops
	} else {
		var buf [maxTTL]Hop // on the stack, where a trace fits
		hops, reached := tr.trace(buf[:0])
		rep = TracerouteReport{Hops: slices.Clone(hops), ReachedDst: reached}
	}
	p.onceReplies, p.onceSteps = tr.replies, tr.steps
	return rep
}

// Trace runs the traceroute once. Its Hops are the previous trace's slice
// when it found the same hops, and the slice the last change displaced when
// it found those: read-only, like every Hops a probe returns.
//
// While every responder of the last trace would decide as it did and the
// probes' flow and every reply flow the last trace used Stand, Trace
// repeats the last trace whole, as Pinger.Ping repeats a ping: one charge
// for its probes, one Flow.Repeat per packet, the same report. Responders
// are judged first and reply flows last, in TTL order, so that a flow is
// checked only where the walks would ask it.
func (tr *Tracer) Trace() TracerouteReport {
	p := tr.p
	p.obs.probes[tr.prim].Inc()
	if tr.stands() {
		p.charge(len(tr.steps))
		for i := range tr.steps {
			st := &tr.steps[i]
			tr.fwd.Repeat(&st.fwd)
			if st.answered {
				tr.replies[i].flow.Repeat(&st.rev)
			}
		}
		return TracerouteReport{Hops: tr.last, ReachedDst: tr.reached}
	}
	// The hops are gathered on the stack, where a trace to maxTTL fits,
	// and copied out once at their final number, unless they are the last
	// or the ones before them.
	var buf [maxTTL]Hop
	tr.steps = tr.steps[:0]
	hops, reached := tr.trace(buf[:0])
	switch {
	case slices.Equal(hops, tr.last):
	case tr.prev != nil && slices.Equal(hops, tr.prev):
		tr.last, tr.prev = tr.prev, tr.last
	default:
		tr.last, tr.prev = make([]Hop, len(hops)), tr.last
		copy(tr.last, hops)
	}
	tr.reached = reached
	return TracerouteReport{Hops: tr.last, ReachedDst: reached}
}

// stands reports whether the last trace would be found again: see Trace.
func (tr *Tracer) stands() bool {
	if len(tr.steps) == 0 {
		return false
	}
	for i := range tr.steps {
		if st := &tr.steps[i]; !decidesAlike(st.who, st.asked, st.answered) {
			return false
		}
	}
	if !tr.fwd.Stands() {
		return false
	}
	for i := range tr.steps {
		if tr.steps[i].answered && !tr.replies[i].flow.Stands() {
			return false
		}
	}
	return true
}

// trace appends one traceroute's output to hops, and each TTL's step to
// tr.steps, and reports whether the destination answered the final probe.
func (tr *Tracer) trace(hops []Hop) ([]Hop, bool) {
	p := tr.p
	stars := 0
	for ttl := 1; ttl <= maxTTL; ttl++ {
		p.charge(1)
		tr.steps = append(tr.steps, traceStep{fwd: tr.fwd.Forward(ttl)})
		st := &tr.steps[ttl-1]
		switch fwd := &st.fwd; fwd.Reason {
		case dataplane.TTLExpired:
			// The TimeExceeded response of the router the probe died at.
			hop := Hop{Star: true}
			if r := p.top.Router(fwd.LastRouter); tr.ask(st, r) && tr.replyArrives(st, ttl, r.ID, r.Addr) {
				hop = Hop{Addr: r.Addr, Router: r.ID, AS: r.AS}
			}
			hops = append(hops, hop)
			if hop.Star {
				stars++
				if stars >= starLimit {
					return hops, false
				}
			} else {
				stars = 0
			}
		case dataplane.Delivered:
			// Final probe: does the destination answer?
			if tr.ask(st, tr.target) && tr.replyArrives(st, ttl, fwd.LastRouter, tr.dst) {
				r := p.top.Router(fwd.LastRouter)
				return append(hops, Hop{Addr: tr.dst, Router: r.ID, AS: r.AS}), true
			}
			return append(hops, Hop{Star: true}), false
		default:
			// The probe vanished (blackhole/no-route): silence at this
			// TTL and every one after it.
			return append(hops, Hop{Star: true}), false
		}
	}
	return hops, false
}

// ask asks responder r (nil: an end host) whether it answers the probe of
// step st, and records the question and the answer in st.
func (tr *Tracer) ask(st *traceStep, r *topo.Router) bool {
	st.who, st.asked, st.answered = r, true, tr.p.responds(r)
	return st.answered
}

// replyArrives walks the reply to the TTL-ttl probe of step st — injected
// at from, sourced src — toward the receiver, records its fate in st and
// reports whether it got there.
func (tr *Tracer) replyArrives(st *traceStep, ttl int, from topo.RouterID, src netip.Addr) bool {
	for len(tr.replies) < ttl {
		tr.replies = append(tr.replies, replyFlow{})
	}
	st.rev = tr.replies[ttl-1].toward(tr.p.pl, from, src, tr.recvAddr).Forward(0)
	return st.rev.Delivered()
}

// ReverseTracer is one reverse traceroute, asked as often as its holder
// likes: from a fixed network element back to a fixed vantage point. It
// holds the flow of the path measured and, like a Tracer, the hops it last
// found, handing back that slice while the path is unchanged.
// ReverseTraceroute is a ReverseTracer made, asked once and dropped.
type ReverseTracer struct {
	p    *Prober
	from *topo.Router
	flow dataplane.Flow
	last []Hop
}

// ReverseTracer returns the measurement ReverseTraceroute(from, to) makes,
// to be held and repeated.
func (p *Prober) ReverseTracer(from, to topo.RouterID) ReverseTracer {
	r := p.top.Router(from)
	return ReverseTracer{p: p, from: r, flow: p.pl.Flow(from, r.Addr, p.top.Router(to).Addr)}
}

// ReverseTraceroute measures the path from the network element at "from"
// back to the vantage point "to", as reverse traceroute would (spoofed
// probes + IP options, here simulated by walking the actual reverse data
// plane). It fails when the reverse path does not currently deliver or the
// far end is unresponsive. The option-probe cost is charged to Sent.
func (p *Prober) ReverseTraceroute(from topo.RouterID, to topo.RouterID) (TracerouteReport, bool) {
	rt := p.ReverseTracer(from, to)
	return rt.Trace()
}

// ReverseProbe is ReverseTraceroute(from, to) without its hops: the same
// probes counted and charged and the same walk, reporting only whether the
// measurement succeeded. It keeps nothing, so it allocates no hops.
func (p *Prober) ReverseProbe(from, to topo.RouterID) bool {
	rt := p.ReverseTracer(from, to)
	_, ok := rt.measure()
	return ok
}

// measure sends the reverse traceroute's probes and walks its path: the
// walk's Result, and whether the far end answered and the path delivered.
func (rt *ReverseTracer) measure() (dataplane.Result, bool) {
	p := rt.p
	p.obs.probes[primReverseTraceroute].Inc()
	if !p.responds(rt.from) {
		return dataplane.Result{}, false
	}
	p.charge(optionProbeCost)
	res := rt.flow.Forward(0)
	return res, res.Delivered()
}

// Trace runs the reverse traceroute once. Its Hops are the previous
// measurement's slice when it found the same path.
func (rt *ReverseTracer) Trace() (TracerouteReport, bool) {
	res, ok := rt.measure()
	if !ok {
		return TracerouteReport{}, false
	}
	if !slices.EqualFunc(rt.last, res.Hops, func(h Hop, d dataplane.Hop) bool {
		return h.Router == d.Router
	}) {
		rt.last = make([]Hop, len(res.Hops))
		for i, h := range res.Hops {
			rt.last[i] = Hop{Addr: h.Addr, Router: h.Router, AS: h.AS}
		}
	}
	return TracerouteReport{Hops: rt.last, ReachedDst: true}, true
}
