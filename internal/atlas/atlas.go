// Package atlas maintains LIFEGUARD's historical path atlas (§4.1.2): the
// regularly-refreshed forward and reverse paths between every vantage point
// and every monitored target, plus a responsiveness database that lets
// isolation distinguish "this router is cut off" from "this router never
// answers probes". The refresher implements the §5.4 cost optimizations:
// re-confirming an unchanged path is much cheaper than measuring one from
// scratch, and per-round caching reuses reverse measurements across
// converging paths.
package atlas

import (
	"net/netip"
	"slices"
	"time"

	"lifeguard/internal/probe"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// PathRecord is one historical measurement of a path.
type PathRecord struct {
	At      time.Duration
	Hops    []probe.Hop
	Reached bool
}

// Repeats reports whether r re-confirmed prev's path unchanged: a held probe
// then hands back the hops it found last time, and the two records share
// one stored path.
func (r *PathRecord) Repeats(prev *PathRecord) bool {
	return len(r.Hops) == len(prev.Hops) && (len(r.Hops) == 0 || &r.Hops[0] == &prev.Hops[0])
}

// ASPath returns the distinct ASes of the record's responsive hops.
func (r *PathRecord) ASPath() topo.Path {
	var out topo.Path
	for _, h := range r.Hops {
		if h.Star {
			continue
		}
		if len(out) == 0 || out[len(out)-1] != h.AS {
			out = append(out, h.AS)
		}
	}
	return out
}

type pairKey struct {
	vp     topo.RouterID
	target netip.Addr
}

// pairState is everything the atlas keeps for one (vp, target): both
// directions' measurements, oldest first, and the traceroute and reverse
// traceroute it repeats (reverse is nil when the target stands for no
// router to measure back from).
type pairState struct {
	fwd, rev []PathRecord
	tracer   probe.Tracer
	reverse  *probe.ReverseTracer
}

const (
	// refreshInterval is the period between automatic refresh rounds once
	// Start is called, in virtual time.
	refreshInterval = 15 * time.Minute
	// maxHistory bounds the records kept per (vp, target, direction).
	maxHistory = 32
	// fullMeasureCost is the option-probe cost of measuring a reverse path
	// from scratch (§5.4 cites ~35 for prior work). The prober already
	// charges its amortized 10 per reverse traceroute; the atlas tops that
	// up to fullMeasureCost when the path is new or changed.
	fullMeasureCost = 35
)

// Atlas is the path atlas. Construct with New, register vantage points and
// targets, then call RefreshAll (or Start for periodic refresh).
type Atlas struct {
	top *topo.Topology
	pr  *probe.Prober
	clk *simclock.Scheduler

	vps     []topo.RouterID
	targets []netip.Addr

	pairs map[pairKey]*pairState

	// resp is the responsiveness database: the addresses that have ever
	// answered a probe.
	resp map[netip.Addr]struct{}

	ticker  simclock.EventID
	started bool
}

// New returns an empty atlas.
func New(top *topo.Topology, pr *probe.Prober, clk *simclock.Scheduler) *Atlas {
	return &Atlas{
		top: top, pr: pr, clk: clk,
		pairs: make(map[pairKey]*pairState),
		resp:  make(map[netip.Addr]struct{}),
	}
}

// AddVP registers a vantage point router.
func (a *Atlas) AddVP(r topo.RouterID) { a.vps = append(a.vps, r) }

// AddTarget registers a monitored destination address.
func (a *Atlas) AddTarget(addr netip.Addr) { a.targets = append(a.targets, addr) }

// VPs returns the registered vantage points.
func (a *Atlas) VPs() []topo.RouterID { return a.vps }

// Targets returns the monitored destinations.
func (a *Atlas) Targets() []netip.Addr { return a.targets }

// NoteResponsive records that addr answered a probe. Only answers are
// recorded: a later silence never erases one.
func (a *Atlas) NoteResponsive(addr netip.Addr) { a.resp[addr] = struct{}{} }

// EverResponsive reports whether addr has ever answered a probe. Isolation
// uses it to exclude configured-silent routers from blame (§4.1.2).
func (a *Atlas) EverResponsive(addr netip.Addr) bool {
	_, ok := a.resp[addr]
	return ok
}

// pair returns the record of (vp, target), nil if it was never refreshed.
func (a *Atlas) pair(vp topo.RouterID, target netip.Addr) *pairState {
	return a.pairs[pairKey{vp: vp, target: target}]
}

// RefreshPair measures and records the forward and reverse paths for one
// (vantage point, target) pair. A path re-confirmed unchanged is recorded
// again, sharing the stored hops of the record before it.
func (a *Atlas) RefreshPair(vp topo.RouterID, target netip.Addr) {
	now := a.clk.Now()
	ps := a.pair(vp, target)
	if ps == nil {
		ps = &pairState{tracer: a.pr.Tracer(vp, target)}
		if tr, ok := a.top.RouterFor(target); ok {
			rt := a.pr.ReverseTracer(tr, vp)
			ps.reverse = &rt
		}
		a.pairs[pairKey{vp: vp, target: target}] = ps
	}

	fwd := ps.tracer.Trace()
	rec := PathRecord{At: now, Hops: fwd.Hops, Reached: fwd.ReachedDst}
	if n := len(ps.fwd); n == 0 || !rec.Repeats(&ps.fwd[n-1]) {
		a.recordHops(fwd.Hops) // a repeat's hops are recorded already
	}
	ps.fwd = a.appendRecord(ps.fwd, rec)

	if ps.reverse == nil {
		return
	}
	if rev, ok := ps.reverse.Trace(); ok {
		// Reverse-traceroute hops are discovered via IP options, not ICMP
		// echo, so they do not feed the ping-responsiveness DB. Charge the
		// from-scratch premium when the path is new or different from the
		// last record (§5.4 amortization).
		rec := PathRecord{At: now, Hops: rev.Hops, Reached: true}
		if n := len(ps.rev); n == 0 || !rec.Repeats(&ps.rev[n-1]) {
			a.pr.Charge(fullMeasureCost - 10)
		}
		ps.rev = a.appendRecord(ps.rev, rec)
	}
}

// RefreshAll refreshes every (vp, target) pair once.
func (a *Atlas) RefreshAll() {
	for _, vp := range a.vps {
		for _, t := range a.targets {
			a.RefreshPair(vp, t)
		}
	}
}

// Start schedules periodic RefreshAll rounds on the virtual clock,
// beginning immediately.
func (a *Atlas) Start() {
	if a.started {
		return
	}
	a.started = true
	var tick func()
	tick = func() {
		if !a.started {
			return
		}
		a.RefreshAll()
		a.ticker = a.clk.After(refreshInterval, tick)
	}
	a.RefreshAll()
	a.ticker = a.clk.After(refreshInterval, tick)
}

// Stop halts periodic refreshing.
func (a *Atlas) Stop() {
	if a.started {
		a.started = false
		a.clk.Cancel(a.ticker)
	}
}

// appendRecord adds rec to one direction's history, dropping the oldest
// records beyond maxHistory.
func (a *Atlas) appendRecord(h []PathRecord, rec PathRecord) []PathRecord {
	h = append(h, rec)
	if len(h) > maxHistory {
		h = h[len(h)-maxHistory:]
	}
	return h
}

func (a *Atlas) recordHops(hops []probe.Hop) {
	for _, h := range hops {
		if !h.Star {
			a.NoteResponsive(h.Addr)
		}
	}
}

// Forward returns the recorded vp→target measurements, oldest first.
func (a *Atlas) Forward(vp topo.RouterID, target netip.Addr) []PathRecord {
	if ps := a.pair(vp, target); ps != nil {
		return ps.fwd
	}
	return nil
}

// Reverse returns the recorded target→vp measurements, oldest first.
func (a *Atlas) Reverse(vp topo.RouterID, target netip.Addr) []PathRecord {
	if ps := a.pair(vp, target); ps != nil {
		return ps.rev
	}
	return nil
}

// AppendHistoricalHops appends to dst the union of routers seen on any
// recorded path (both directions) between vp and target, deduplicated, in
// first-seen order across records from newest to oldest. These are the
// candidate failure locations isolation probes. A run of records sharing one
// stored path is read once. A caller that passes its previous result as
// dst[:0] reuses its array.
func (a *Atlas) AppendHistoricalHops(dst []probe.Hop, vp topo.RouterID, target netip.Addr) []probe.Hop {
	ps := a.pair(vp, target)
	if ps == nil {
		return dst
	}
	start := len(dst)
	for _, recs := range [2][]PathRecord{ps.fwd, ps.rev} {
		for i := len(recs) - 1; i >= 0; i-- {
			if i < len(recs)-1 && recs[i+1].Repeats(&recs[i]) {
				continue
			}
			for _, h := range recs[i].Hops {
				if !h.Star && !slices.ContainsFunc(dst[start:], func(o probe.Hop) bool { return o.Router == h.Router }) {
					dst = append(dst, h)
				}
			}
		}
	}
	return dst
}

// LatestReverseBefore returns the reverse records strictly older than
// cutoff, oldest first, for the §4.1.2 expanding suspect-set analysis: the
// most recent of them is the last. Records are appended in clock order, so
// they are a prefix of the stored history, and the slice returned is that
// prefix itself, not a copy: read it, never write through it.
func (a *Atlas) LatestReverseBefore(vp topo.RouterID, target netip.Addr, cutoff time.Duration) []PathRecord {
	recs := a.Reverse(vp, target)
	n := len(recs)
	for n > 0 && recs[n-1].At >= cutoff {
		n--
	}
	return recs[:n:n]
}
