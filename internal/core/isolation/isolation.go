// Package isolation implements LIFEGUARD's failure-isolation engine (§4.1):
// given a (vantage point, target) pair in outage, it determines which
// direction failed, measures the working direction with spoofed probes,
// probes the hops of historical atlas paths to establish the reachability
// horizon, and blames the AS just beyond it. It also computes what a plain
// traceroute would have blamed, the baseline the paper shows is wrong 40%
// of the time.
package isolation

import (
	"net/netip"
	"time"

	"lifeguard/internal/atlas"
	"lifeguard/internal/obs"
	"lifeguard/internal/probe"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// Direction classifies which direction of a path failed.
type Direction int

// Failure directions as isolated by spoofed pings.
const (
	Unknown Direction = iota
	Forward
	Reverse
	Bidirectional
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Forward:
		return "forward"
	case Reverse:
		return "reverse"
	case Bidirectional:
		return "bidirectional"
	default:
		return "unknown"
	}
}

// Report is the outcome of one isolation run.
type Report struct {
	VP     topo.RouterID
	Target netip.Addr
	At     time.Duration

	// Healed is set when the target turned out reachable after all;
	// nothing else is filled in.
	Healed bool

	Direction Direction

	// Blamed is the AS isolation holds responsible — the poisoning
	// candidate. Zero when isolation could not localize the failure.
	Blamed topo.ASN
	// BlamedRouter is the representative broken router (H′ in §4.1.2).
	BlamedRouter topo.RouterID
	// BlamedLink, when non-nil, names the AS boundary the horizon
	// crossed: BlamedLink[0] (the blamed AS) fails toward BlamedLink[1].
	// Selective poisoning can target it (§3.1.2).
	BlamedLink *[2]topo.ASN

	// TracerouteBlame is what an operator using traceroute alone would
	// conclude (the AS of the last responsive hop) — the baseline of
	// §5.3.
	TracerouteBlame topo.ASN

	// WorkingPath is the measured path in the working direction, if any.
	WorkingPath []probe.Hop

	// ProbesUsed counts probe packets consumed by this isolation;
	// EstimatedDuration converts that to wall time (§5.4 reports ~280
	// probes and ~140s for reverse outages).
	ProbesUsed        int
	EstimatedDuration time.Duration
}

const (
	// perProbeLatency converts a probe count to estimated isolation wall
	// time (probe RTTs plus rate-limit pacing): ~280 probes in ~140s for a
	// reverse outage (§5.4).
	perProbeLatency = 500 * time.Millisecond
	// maxHistoricalRecords bounds how many old atlas paths the §4.1.2
	// suspect-set expansion examines.
	maxHistoricalRecords = 5
)

// Isolator runs failure isolation using a prober, a path atlas, and the
// atlas's other vantage points as spoofing helpers.
type Isolator struct {
	top *topo.Topology
	pr  *probe.Prober
	atl *atlas.Atlas
	clk *simclock.Scheduler

	// states and hops are blameReverse's horizon map and its historical
	// hops, kept from call to call so that a run reuses their storage;
	// each run starts by emptying them.
	states map[topo.RouterID]hopState
	hops   []probe.Hop

	obs isolatorObs
}

// isolatorObs holds the isolator's metric handles; all-nil means
// uninstrumented.
type isolatorObs struct {
	runs     *obs.Counter
	healed   *obs.Counter
	probes   *obs.Counter
	duration *obs.Histogram
}

// isolationDurationBuckets covers the estimated isolation time in virtual
// seconds; the paper reports ~140s for reverse outages (§5.4).
var isolationDurationBuckets = []float64{10, 30, 60, 120, 240, 480, 960}

// Instrument registers the isolator's metrics with reg. A nil registry
// leaves the isolator uninstrumented.
func (iso *Isolator) Instrument(reg *obs.Registry) {
	reg.Describe("lifeguard_isolation_runs_total",
		"failure-isolation runs started")
	reg.Describe("lifeguard_isolation_healed_total",
		"isolation runs that found the outage already healed")
	reg.Describe("lifeguard_isolation_probes_total",
		"probe packets consumed by isolation runs")
	reg.Describe("lifeguard_isolation_duration_seconds",
		"estimated isolation duration per run, in virtual-time seconds")
	iso.obs.runs = reg.Counter("lifeguard_isolation_runs_total")
	iso.obs.healed = reg.Counter("lifeguard_isolation_healed_total")
	iso.obs.probes = reg.Counter("lifeguard_isolation_probes_total")
	iso.obs.duration = reg.Histogram("lifeguard_isolation_duration_seconds", isolationDurationBuckets)
}

// New returns an isolator. Vantage points are taken from the atlas.
func New(top *topo.Topology, pr *probe.Prober, atl *atlas.Atlas, clk *simclock.Scheduler) *Isolator {
	return &Isolator{top: top, pr: pr, atl: atl, clk: clk, states: make(map[topo.RouterID]hopState)}
}

// Isolate diagnoses the outage between vp and target. It issues probes but
// does not advance the virtual clock; EstimatedDuration tells the caller
// how long the measurements would have taken.
func (iso *Isolator) Isolate(vp topo.RouterID, target netip.Addr) *Report {
	rep := &Report{VP: vp, Target: target, At: iso.clk.Now()}
	iso.obs.runs.Inc()
	probesBefore := iso.pr.Sent
	defer func() {
		rep.ProbesUsed = iso.pr.Sent - probesBefore
		rep.EstimatedDuration = time.Duration(rep.ProbesUsed) * perProbeLatency
		if rep.Healed {
			iso.obs.healed.Inc()
		}
		iso.obs.probes.Add(int64(rep.ProbesUsed))
		iso.obs.duration.Observe(rep.EstimatedDuration.Seconds())
	}()

	// Re-confirm the failure; outages resolve on their own all the time.
	if iso.pr.Ping(vp, target).OK {
		rep.Healed = true
		return rep
	}

	// Baseline: what does plain traceroute say? Only its last responsive
	// hop is kept: the report's hops are the prober's, reused by its next
	// plain traceroute.
	tr := iso.pr.Traceroute(vp, target)
	last, lastOK := tr.LastResponsive()
	if lastOK {
		rep.TracerouteBlame = last.AS
	}

	// Step 2a: isolate the failing direction with spoofed pings via a
	// helper vantage point that can reach the target.
	helper, hasHelper := iso.findHelper(vp, target)
	if hasHelper {
		forwardOK := iso.pr.SpoofedPing(vp, target, helper).OK
		reverseOK := iso.pr.SpoofedPing(helper, target, vp).OK
		switch {
		case forwardOK && !reverseOK:
			rep.Direction = Reverse
		case !forwardOK && reverseOK:
			rep.Direction = Forward
		case !forwardOK && !reverseOK:
			rep.Direction = Bidirectional
		default:
			// Both spoofed probes worked: the outage healed mid-run
			// or is flaky; report healed.
			rep.Healed = true
			return rep
		}
	} else {
		rep.Direction = Bidirectional // no helper: treat like a forward problem
	}

	// Step 2b: measure the working direction.
	switch rep.Direction {
	case Reverse:
		wd := iso.pr.SpoofedTraceroute(vp, target, helper)
		rep.WorkingPath = wd.Hops
	case Forward:
		if tr, ok := iso.top.RouterFor(target); ok {
			if rt, ok := iso.pr.ReverseTraceroute(tr, vp); ok {
				rep.WorkingPath = rt.Hops
			}
		}
	}

	// Steps 3–4: test atlas paths in the failing direction and blame the
	// far side of the reachability horizon.
	switch rep.Direction {
	case Reverse:
		iso.blameReverse(rep, vp, target)
	default:
		if lastOK { // else not even the first hop answered; cannot localize
			iso.blameForward(rep, vp, target, last)
		}
	}
	return rep
}

// findHelper returns a vantage point (other than vp) that currently has
// bidirectional connectivity to target.
func (iso *Isolator) findHelper(vp topo.RouterID, target netip.Addr) (topo.RouterID, bool) {
	for _, w := range iso.atl.VPs() {
		if w == vp {
			continue
		}
		if iso.pr.Ping(w, target).OK {
			return w, true
		}
	}
	return 0, false
}

// hopState classifies a historical hop during horizon probing.
type hopState int

const (
	hopUnknown hopState = iota // never responsive, or can't tell
	hopReaches                 // responds to vp: has a working path back
	hopCutOff                  // alive (responds to helper) but not to vp
	hopDark                    // responded in the past, now silent to all
)

// classify probes one historical hop from vp and, when it fails, from every
// other vantage point — §4.1.2 distinguishes hops that "cannot reach S but
// respond to other vantage points" (cut off) from hops silent to everyone
// (dark, possibly the broken element itself).
func (iso *Isolator) classify(h probe.Hop, vp topo.RouterID) hopState {
	if h.Star {
		return hopUnknown
	}
	if !iso.atl.EverResponsive(h.Addr) {
		return hopUnknown // configured silent: silence proves nothing
	}
	if iso.pr.Ping(vp, h.Addr).OK {
		return hopReaches
	}
	state := hopDark
	for _, w := range iso.atl.VPs() {
		if w == vp {
			continue
		}
		if iso.pr.Ping(w, h.Addr).OK {
			state = hopCutOff
			break
		}
	}
	return state
}

// blameReverse implements the §4.1.2 reverse-failure analysis: on the most
// recent historical reverse path (target→vp), find the farthest hop H that
// still reaches vp and blame the first hop H′ past it that cannot; repeat
// over older paths when the newest is inconclusive.
func (iso *Isolator) blameReverse(rep *Report, vp topo.RouterID, target netip.Addr) {
	// Step 3 — test atlas paths in the failing direction: ping every hop
	// that ever appeared on a path between vp and target (both
	// directions), from vp and, on failure, from the other vantage
	// points. This builds the reachability-horizon map.
	states := iso.states
	clear(states)
	iso.hops = iso.atl.AppendHistoricalHops(iso.hops[:0], vp, target)
	for _, hop := range iso.hops {
		st := iso.classify(hop, vp)
		states[hop.Router] = st
		// "For all hops still pingable from S, LIFEGUARD measures a
		// reverse traceroute to S" — these corroborate the horizon. The
		// blame below reads only the states, so the paths are not kept.
		if st == hopReaches {
			iso.pr.ReverseProbe(hop.Router, vp)
		}
	}

	// Step 4 — prune: on the most recent pre-failure reverse path, H is
	// the farthest hop that still reaches vp; blame the first hop H′
	// past it that cannot. Older paths — the newest
	// maxHistoricalRecords records in all — expand the suspect set when
	// the newest is inconclusive.
	recs := iso.atl.LatestReverseBefore(vp, target, iso.clk.Now())
	for i := len(recs) - 1; i >= 0 && i >= len(recs)-maxHistoricalRecords; i-- {
		rec := &recs[i]
		if i < len(recs)-1 && recs[i+1].Repeats(rec) {
			continue // the path just found inconclusive, re-confirmed
		}
		// rec.Hops runs target→vp: scan from the vp end toward the
		// target.
		var hPrime *probe.Hop
		var h *probe.Hop
		for i := len(rec.Hops) - 1; i >= 0; i-- {
			hop := rec.Hops[i]
			st, seen := states[hop.Router]
			if !seen {
				st = iso.classify(hop, vp)
				states[hop.Router] = st
			}
			switch st {
			case hopReaches:
				h = &rec.Hops[i]
			case hopCutOff, hopDark:
				hPrime = &rec.Hops[i]
			case hopUnknown:
				continue
			}
			if hPrime != nil {
				break
			}
		}
		if hPrime == nil {
			continue // every probed hop reaches vp: stale path, try older
		}
		rep.Blamed = hPrime.AS
		rep.BlamedRouter = hPrime.Router
		if h != nil && h.AS != hPrime.AS {
			rep.BlamedLink = &[2]topo.ASN{hPrime.AS, h.AS}
		}
		return
	}
}

// blameForward handles forward and bidirectional failures: the fault lies
// just past last, the last responsive traceroute hop; historical forward
// paths through that hop tell us which AS comes next.
func (iso *Isolator) blameForward(rep *Report, vp topo.RouterID, target netip.Addr, last probe.Hop) {
	recs := iso.atl.Forward(vp, target)
	for i := len(recs) - 1; i >= 0; i-- {
		hops := recs[i].Hops
		for j, h := range hops {
			if h.Star || h.Router != last.Router {
				continue
			}
			// Found the horizon hop on a historical path: blame the
			// next responsive hop (often the next AS's ingress).
			for k := j + 1; k < len(hops); k++ {
				if !hops[k].Star {
					rep.Blamed = hops[k].AS
					rep.BlamedRouter = hops[k].Router
					if hops[k].AS != last.AS {
						rep.BlamedLink = &[2]topo.ASN{hops[k].AS, last.AS}
					}
					return
				}
			}
		}
	}
	// No history past the horizon: blame the last hop's own AS.
	rep.Blamed = last.AS
	rep.BlamedRouter = last.Router
}
