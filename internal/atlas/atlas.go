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
	"sort"
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
// directions' measurements, oldest first, and the traceroute it repeats.
type pairState struct {
	fwd, rev []PathRecord
	tracer   probe.Tracer
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

	// resp records whether an address has ever answered a probe and when
	// it last did.
	resp map[netip.Addr]*Responsiveness

	// PathsRefreshed counts reverse-path refreshes performed, for the
	// §5.4 throughput measurement.
	PathsRefreshed int

	ticker  simclock.EventID
	started bool
}

// Responsiveness is one address's row in the responsiveness database. A
// caller that observes the same address again and again (a monitor pair,
// every round) holds the row and notes into it directly.
type Responsiveness struct {
	ever   bool
	lastOK time.Duration
}

// Note records that the address answered a probe at virtual time now.
func (r *Responsiveness) Note(now time.Duration) {
	r.ever = true
	r.lastOK = now
}

// New returns an empty atlas.
func New(top *topo.Topology, pr *probe.Prober, clk *simclock.Scheduler) *Atlas {
	return &Atlas{
		top: top, pr: pr, clk: clk,
		pairs: make(map[pairKey]*pairState),
		resp:  make(map[netip.Addr]*Responsiveness),
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

// targetRouter resolves the router that stands for a target address.
func (a *Atlas) targetRouter(addr netip.Addr) (topo.RouterID, bool) {
	if r, ok := a.top.RouterByAddr(addr); ok {
		return r.ID, true
	}
	owner, ok := topo.OwnerOf(addr)
	if !ok {
		return 0, false
	}
	as := a.top.AS(owner)
	if as == nil || len(as.Routers) == 0 {
		return 0, false
	}
	return as.Routers[0], true
}

// Responsiveness returns addr's row in the responsiveness database, adding
// an empty one (never answered) on first sight.
func (a *Atlas) Responsiveness(addr netip.Addr) *Responsiveness {
	r := a.resp[addr]
	if r == nil {
		r = new(Responsiveness)
		a.resp[addr] = r
	}
	return r
}

// NoteResponsive records an externally-observed probe outcome for addr.
func (a *Atlas) NoteResponsive(addr netip.Addr, ok bool) {
	if r := a.Responsiveness(addr); ok {
		r.Note(a.clk.Now())
	}
}

// EverResponsive reports whether addr has ever answered a probe. Isolation
// uses it to exclude configured-silent routers from blame (§4.1.2).
func (a *Atlas) EverResponsive(addr netip.Addr) bool {
	r := a.resp[addr]
	return r != nil && r.ever
}

// pair returns the record of (vp, target), nil if it was never refreshed.
func (a *Atlas) pair(vp topo.RouterID, target netip.Addr) *pairState {
	return a.pairs[pairKey{vp: vp, target: target}]
}

// RefreshPair measures and records the forward and reverse paths for one
// (vantage point, target) pair.
func (a *Atlas) RefreshPair(vp topo.RouterID, target netip.Addr) {
	now := a.clk.Now()
	ps := a.pair(vp, target)
	if ps == nil {
		ps = &pairState{tracer: a.pr.Tracer(vp, target)}
		a.pairs[pairKey{vp: vp, target: target}] = ps
	}

	fwd := ps.tracer.Trace()
	a.recordHops(fwd.Hops)
	ps.fwd = a.appendRecord(ps.fwd, PathRecord{At: now, Hops: fwd.Hops, Reached: fwd.ReachedDst})

	if tr, ok := a.targetRouter(target); ok {
		rev, ok := a.pr.ReverseTraceroute(tr, vp)
		if ok {
			// Reverse-traceroute hops are discovered via IP options, not
			// ICMP echo, so they do not feed the ping-responsiveness DB.
			// Charge the from-scratch premium when the path is new or
			// different from the last record (§5.4 amortization).
			if len(ps.rev) == 0 || !samePath(ps.rev[len(ps.rev)-1].Hops, rev.Hops) {
				a.pr.Charge(fullMeasureCost - 10)
			}
			ps.rev = a.appendRecord(ps.rev, PathRecord{At: now, Hops: rev.Hops, Reached: true})
			a.PathsRefreshed++
		}
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
			a.NoteResponsive(h.Addr, true)
		}
	}
}

func samePath(a, b []probe.Hop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Star != b[i].Star || a[i].Router != b[i].Router {
			return false
		}
	}
	return true
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

// HistoricalHops returns the union of routers seen on any recorded path
// (both directions) between vp and target, deduplicated, in first-seen
// order across records from newest to oldest. These are the candidate
// failure locations isolation probes.
func (a *Atlas) HistoricalHops(vp topo.RouterID, target netip.Addr) []probe.Hop {
	var out []probe.Hop
	seen := make(map[topo.RouterID]bool)
	add := func(recs []PathRecord) {
		for i := len(recs) - 1; i >= 0; i-- {
			for _, h := range recs[i].Hops {
				if h.Star || seen[h.Router] {
					continue
				}
				seen[h.Router] = true
				out = append(out, h)
			}
		}
	}
	if ps := a.pair(vp, target); ps != nil {
		add(ps.fwd)
		add(ps.rev)
	}
	return out
}

// LatestReverseBefore returns the most recent reverse record strictly older
// than cutoff, plus all older ones (newest first), for the §4.1.2 expanding
// suspect-set analysis.
func (a *Atlas) LatestReverseBefore(vp topo.RouterID, target netip.Addr, cutoff time.Duration) []PathRecord {
	recs := a.Reverse(vp, target)
	var out []PathRecord
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].At < cutoff {
			out = append(out, recs[i])
		}
	}
	return out
}

// RefreshRatePerMinute reports average reverse-path refreshes per virtual
// minute since the atlas started measuring.
func (a *Atlas) RefreshRatePerMinute() float64 {
	mins := a.clk.Now().Minutes()
	if mins <= 0 {
		return 0
	}
	return float64(a.PathsRefreshed) / mins
}

// SortedTargets returns targets in deterministic address order (test aid).
func (a *Atlas) SortedTargets() []netip.Addr {
	out := append([]netip.Addr(nil), a.targets...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
