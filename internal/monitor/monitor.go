// Package monitor implements LIFEGUARD's reachability monitoring (§2.1):
// vantage points send a pair of pings to each watched target every round,
// and a target is declared down for a vantage point after a run of
// consecutive all-failed rounds — the same rule the paper's EC2 study used
// (pairs every 30s, four consecutive dropped pairs ⇒ outage, so the minimum
// detectable outage is 90 seconds). Outage begin/end events drive failure
// isolation and the availability accounting.
package monitor

import (
	"net/netip"
	"time"

	"lifeguard/internal/atlas"
	"lifeguard/internal/obs"
	"lifeguard/internal/probe"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// The detection rule of the paper's EC2 study (§2.1): a pair of pings
// every 30 seconds, and four consecutive rounds in which both failed
// declare an outage.
const (
	// interval is the period between rounds.
	interval = 30 * time.Second
	// failThreshold is the number of consecutive failed rounds that
	// declares an outage.
	failThreshold = 4
	// pingsPerRound is how many pings form one round; the round fails only
	// if all of them fail (a "pair of pings").
	pingsPerRound = 2
)

// Outage describes one detected outage between a vantage point and target.
type Outage struct {
	VP     topo.RouterID
	Target netip.Addr
	// Start is when the first failed round was sent; End is when a round
	// succeeded again (zero while ongoing).
	Start, End time.Duration
}

// Duration returns the outage length (ongoing outages measure to now).
func (o *Outage) Duration(now time.Duration) time.Duration {
	if o.End > 0 {
		return o.End - o.Start
	}
	return now - o.Start
}

// pair is one watched (vantage point, source, target), the ping it sends
// every round and its detection state, kept together so a round touches
// each pair once and hashes nothing.
type pair struct {
	vp     topo.RouterID
	src    netip.Addr // zero: use the vp router's own address
	target netip.Addr
	pinger probe.Pinger
	// resp is the target's row in respOf's responsiveness database, looked
	// up when the target answers and Monitor.Atlas is not respOf.
	resp   *atlas.Responsiveness
	respOf *atlas.Atlas

	consecFails int
	firstFail   time.Duration
	current     *Outage
}

// Monitor drives periodic reachability rounds.
type Monitor struct {
	pr  *probe.Prober
	clk *simclock.Scheduler

	// Atlas, when set, receives responsiveness observations.
	Atlas *atlas.Atlas

	// OnOutage fires when an outage is declared (after failThreshold
	// rounds); OnRecovery fires when a declared outage heals.
	OnOutage   func(o *Outage)
	OnRecovery func(o *Outage)
	// OnRound fires after every completed monitoring round — the
	// heartbeat a failsafe watchdog uses to detect monitor loss.
	OnRound func()

	pairs []*pair

	// History accumulates all declared outages, resolved or not.
	History []*Outage

	ticker  simclock.EventID
	started bool

	obs monitorObs
}

// monitorObs holds the monitor's metric handles; the zero value (all-nil
// handles) is the uninstrumented state.
type monitorObs struct {
	rounds     *obs.Counter
	outages    *obs.Counter
	recoveries *obs.Counter
}

// Instrument registers the monitor's metrics with reg. A nil registry
// leaves the monitor uninstrumented.
func (m *Monitor) Instrument(reg *obs.Registry) {
	reg.Describe("lifeguard_monitor_ping_rounds_total",
		"monitoring rounds executed per watched (vantage point, target) pair")
	reg.Describe("lifeguard_monitor_outages_detected_total",
		"outages declared after FailThreshold consecutive failed rounds")
	reg.Describe("lifeguard_monitor_recoveries_total",
		"declared outages that subsequently healed")
	m.obs.rounds = reg.Counter("lifeguard_monitor_ping_rounds_total")
	m.obs.outages = reg.Counter("lifeguard_monitor_outages_detected_total")
	m.obs.recoveries = reg.Counter("lifeguard_monitor_recoveries_total")
}

// New returns a monitor with no watched pairs.
func New(pr *probe.Prober, clk *simclock.Scheduler) *Monitor {
	return &Monitor{pr: pr, clk: clk}
}

// Watch adds a (vantage point, target) pair to the monitored set.
func (m *Monitor) Watch(vp topo.RouterID, target netip.Addr) {
	m.watch(vp, netip.Addr{}, target)
}

// WatchFrom monitors target from vp using src as the probe source address —
// the deployment mode where the vantage point's pings carry the production
// prefix, so the monitored reachability is exactly what poisoning repairs.
func (m *Monitor) WatchFrom(vp topo.RouterID, src, target netip.Addr) {
	m.watch(vp, src, target)
}

func (m *Monitor) watch(vp topo.RouterID, src, target netip.Addr) {
	for _, p := range m.pairs {
		if p.vp == vp && p.src == src && p.target == target {
			return
		}
	}
	p := &pair{vp: vp, src: src, target: target}
	if src.IsValid() {
		p.pinger = m.pr.PingerFromAddr(vp, src, target)
	} else {
		p.pinger = m.pr.Pinger(vp, target)
	}
	m.pairs = append(m.pairs, p)
}

// Start begins periodic rounds, the first immediately.
func (m *Monitor) Start() {
	if m.started {
		return
	}
	m.started = true
	var tick func()
	tick = func() {
		if !m.started {
			return
		}
		m.Round()
		m.ticker = m.clk.After(interval, tick)
	}
	tick()
}

// Stop halts monitoring.
func (m *Monitor) Stop() {
	if m.started {
		m.started = false
		m.clk.Cancel(m.ticker)
	}
}

// Interval returns the round cadence.
func (m *Monitor) Interval() time.Duration { return interval }

// Round performs one monitoring round over all pairs immediately.
func (m *Monitor) Round() {
	for _, p := range m.pairs {
		m.roundFor(p)
	}
	if m.OnRound != nil {
		m.OnRound()
	}
}

func (m *Monitor) roundFor(p *pair) {
	m.obs.rounds.Inc()
	ok := false
	responded := false
	for i := 0; i < pingsPerRound; i++ {
		rep := p.pinger.Ping()
		if rep.Responded {
			responded = true
		}
		if rep.OK {
			ok = true
			break // no need to burn the second ping of the pair
		}
	}
	if m.Atlas != nil && responded {
		if p.respOf != m.Atlas {
			p.resp, p.respOf = m.Atlas.Responsiveness(p.target), m.Atlas
		}
		p.resp.Note(m.clk.Now())
	}
	if ok {
		if p.current != nil {
			p.current.End = m.clk.Now()
			m.obs.recoveries.Inc()
			if m.OnRecovery != nil {
				m.OnRecovery(p.current)
			}
			p.current = nil
		}
		p.consecFails = 0
		return
	}
	if p.consecFails == 0 {
		p.firstFail = m.clk.Now()
	}
	p.consecFails++
	if p.consecFails == failThreshold && p.current == nil {
		o := &Outage{VP: p.vp, Target: p.target, Start: p.firstFail}
		p.current = o
		m.obs.outages.Inc()
		m.History = append(m.History, o)
		if m.OnOutage != nil {
			m.OnOutage(o)
		}
	}
}

// Ongoing returns the currently-declared outages.
func (m *Monitor) Ongoing() []*Outage {
	var out []*Outage
	for _, p := range m.pairs {
		if p.current != nil {
			out = append(out, p.current)
		}
	}
	return out
}

// Down reports whether any monitored pair between vp and target (whatever
// its source address) is currently in a declared outage.
func (m *Monitor) Down(vp topo.RouterID, target netip.Addr) bool {
	for _, p := range m.pairs {
		if p.vp == vp && p.target == target && p.current != nil {
			return true
		}
	}
	return false
}
