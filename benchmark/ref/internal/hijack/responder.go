package hijack

import (
	"net/netip"
	"sort"
	"time"

	"lifeguard/internal/core/remedy"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// ResponderConfig tunes the auto-mitigation loop.
type ResponderConfig struct {
	// Owner is the AS the responder defends; alarms for other owners are
	// ignored (each tenant mitigates only its own space).
	Owner topo.ASN
	// Vantages are the ASes whose data-plane view verifies recovery.
	// Default: the owner's providers — customer-route preference makes
	// them the first to flip back, so "all vantages recovered" is the
	// earliest honest claim of mitigation. ASes without routers are
	// skipped.
	Vantages []topo.ASN
	// VerifyInterval is the recovery-poll period. Default 30s.
	VerifyInterval time.Duration
	// VerifyBudget bounds the polls per mitigation (the attack may simply
	// win at some vantages — sub-prefix recovery is partial by design).
	// Default 20.
	VerifyBudget int
}

func (c ResponderConfig) withDefaults(top *topo.Topology) ResponderConfig {
	if len(c.Vantages) == 0 {
		c.Vantages = top.Providers(c.Owner)
	}
	var vs []topo.ASN
	for _, v := range c.Vantages {
		if as := top.AS(v); as != nil && len(as.Routers) > 0 {
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	c.Vantages = vs
	if c.VerifyInterval == 0 {
		c.VerifyInterval = 30 * time.Second
	}
	if c.VerifyBudget == 0 {
		c.VerifyBudget = 20
	}
	return c
}

// Mitigation records the response to one alarm.
type Mitigation struct {
	Alarm *Alarm
	// Announced lists the counter-announcements installed: the two
	// de-aggregated halves for an exact-prefix or forged-origin attack,
	// or the contested more-specific itself for a sub-prefix attack.
	Announced []netip.Prefix
	// Poisoned names the rogue poisoned in the counter-announcement
	// pattern (sub-prefix response), 0 for the plain baseline pattern.
	Poisoned topo.ASN
	// Fallback is set when the rogue disables loop detection
	// (MaxOwnASOccurs == 0) and cannot be poisoned — the Smith et al.
	// result — so the plain pattern was used instead.
	Fallback  bool
	StartedAt time.Duration
	// VerifiedAt is when every vantage's data plane reached the owner
	// again (zero until then); Latency is VerifiedAt − Alarm.DetectedAt,
	// the paper's mitigation-delay metric.
	VerifiedAt time.Duration
	Latency    time.Duration
	// Recovered counts vantages reaching the owner at the last poll;
	// Vantages is the poll set size.
	Recovered, Vantages int
	// Checks counts recovery polls performed.
	Checks int
	// Withdrawn is set once the alarm cleared and the counter-
	// announcements were withdrawn.
	Withdrawn bool
}

// Verified reports whether the mitigation was confirmed from every vantage.
func (m *Mitigation) Verified() bool { return m.VerifiedAt != 0 }

// Responder is the mitigation half of the pipeline: it chains onto a
// Detector's alarm hooks, counter-announces through the remedy Controller,
// verifies recovery with data-plane probes from fixed vantages, and
// withdraws the counter-announcements when the alarm clears.
type Responder struct {
	ctl *remedy.Controller
	top *topo.Topology
	pl  *dataplane.Plane
	clk *simclock.Scheduler
	cfg ResponderConfig

	// OnMitigated fires when a mitigation verifies (every vantage
	// recovered); OnWithdrawn when the cleared alarm's counter-
	// announcements are removed.
	OnMitigated func(*Mitigation)
	OnWithdrawn func(*Mitigation)

	byKey map[alarmKey]*Mitigation
	// Mitigations lists every response ever mounted, in alarm order.
	Mitigations []*Mitigation

	mResponses func(string) *obs.Counter
	mChecks    func(bool) *obs.Counter
}

// NewResponder wires a responder onto det's hooks (preserving any already
// installed) using ctl — which must speak for cfg.Owner — to announce.
func NewResponder(det *Detector, ctl *remedy.Controller, pl *dataplane.Plane, cfg ResponderConfig) *Responder {
	r := &Responder{
		ctl: ctl, top: det.top, pl: pl, clk: det.clk,
		cfg:        cfg.withDefaults(det.top),
		byKey:      make(map[alarmKey]*Mitigation),
		mResponses: func(string) *obs.Counter { return nil },
		mChecks:    func(bool) *obs.Counter { return nil },
	}
	prevAlarm := det.OnAlarm
	det.OnAlarm = func(a *Alarm) {
		if prevAlarm != nil {
			prevAlarm(a)
		}
		r.handleAlarm(a)
	}
	prevClear := det.OnClear
	det.OnClear = func(a *Alarm) {
		if prevClear != nil {
			prevClear(a)
		}
		r.handleClear(a)
	}
	return r
}

// Instrument registers the responder's metrics with reg. A nil registry
// leaves it uninstrumented.
func (r *Responder) Instrument(reg *obs.Registry) {
	reg.Describe("lifeguard_hijack_responses_total",
		"mitigations mounted, by response (deaggregate, reclaim, reclaim-fallback)")
	reg.Describe("lifeguard_hijack_recovery_checks_total",
		"data-plane recovery polls, by outcome")
	r.mResponses = func(kind string) *obs.Counter {
		return reg.Counter("lifeguard_hijack_responses_total", obs.L("response", kind))
	}
	r.mChecks = func(recovered bool) *obs.Counter {
		outcome := "pending"
		if recovered {
			outcome = "recovered"
		}
		return reg.Counter("lifeguard_hijack_recovery_checks_total", obs.L("outcome", outcome))
	}
}

// Vantages returns the effective verification vantage set.
func (r *Responder) Vantages() []topo.ASN { return r.cfg.Vantages }

// handleAlarm mounts the class-appropriate counter-announcement and starts
// the recovery poll.
func (r *Responder) handleAlarm(a *Alarm) {
	if a.Owner != r.cfg.Owner {
		return
	}
	k := alarmKey{class: a.Class, rogue: a.Rogue, prefix: a.Prefix}
	if r.byKey[k] != nil {
		return
	}
	m := &Mitigation{Alarm: a, StartedAt: r.clk.Now(), Vantages: len(r.cfg.Vantages)}
	switch a.Class {
	case SubPrefix:
		// The hijacked more-specific is re-claimed by announcing its two
		// halves — longest-prefix match beats the rogue at every AS — with
		// the rogue poisoned so recovered traffic never transits the
		// adversary. A rogue with loop detection disabled is unpoisonable
		// (Smith et al.); fall back to the plain pattern, conceding the
		// rogue's own cone but reclaiming everyone else. An unsplittable
		// /32 degrades to an equal-length reclaim.
		avoid := a.Rogue
		if as := r.top.AS(a.Rogue); as == nil || as.MaxOwnASOccurs == 0 {
			avoid = 0
			m.Fallback = true
			r.mResponses("reclaim-fallback").Inc()
		} else {
			r.mResponses("reclaim").Inc()
		}
		m.Poisoned = avoid
		if lo, hi, ok := remedy.Halves(a.Prefix); ok {
			r.ctl.CounterAnnounce(lo, avoid)
			r.ctl.CounterAnnounce(hi, avoid)
			m.Announced = []netip.Prefix{lo, hi}
		} else {
			r.ctl.CounterAnnounce(a.Prefix, avoid)
			m.Announced = []netip.Prefix{a.Prefix}
		}
	default: // ExactPrefix, ForgedOrigin
		// De-aggregate: the two halves out-compete the hijacked route by
		// longest-prefix match at every AS, rogue included. An unsplittable
		// /32 degrades to the sub-prefix response against the same prefix.
		if lo, hi, ok := remedy.Halves(a.Prefix); ok {
			r.ctl.CounterAnnounce(lo, 0)
			r.ctl.CounterAnnounce(hi, 0)
			m.Announced = []netip.Prefix{lo, hi}
			r.mResponses("deaggregate").Inc()
		} else {
			r.ctl.CounterAnnounce(a.Prefix, 0)
			m.Announced = []netip.Prefix{a.Prefix}
			r.mResponses("reclaim-fallback").Inc()
		}
	}
	r.byKey[k] = m
	r.Mitigations = append(r.Mitigations, m)
	r.armVerify(m)
}

// armVerify polls the vantages until every one reaches the owner again, the
// alarm clears, or the budget runs out.
func (r *Responder) armVerify(m *Mitigation) {
	var tick func()
	tick = func() {
		if m.Withdrawn || m.Verified() || m.Checks >= r.cfg.VerifyBudget {
			return
		}
		m.Checks++
		recovered := r.CheckRecovery(m)
		r.mChecks(recovered).Inc()
		if recovered {
			m.VerifiedAt = r.clk.Now()
			m.Latency = m.VerifiedAt - m.Alarm.DetectedAt
			if r.OnMitigated != nil {
				r.OnMitigated(m)
			}
			return
		}
		r.clk.After(r.cfg.VerifyInterval, tick)
	}
	r.clk.After(r.cfg.VerifyInterval, tick)
}

// CheckRecovery probes the contested prefix from every vantage hub and
// reports whether all of them reach the owner. It updates m.Recovered with
// the per-vantage count, the numerator of the fraction-recovered metric.
func (r *Responder) CheckRecovery(m *Mitigation) bool {
	probe := m.Alarm.Prefix.Masked().Addr().Next()
	n := 0
	for _, v := range r.cfg.Vantages {
		hub := r.top.AS(v).Routers[0]
		res := r.pl.Forward(hub, dataplane.Packet{Dst: probe})
		if res.Delivered() && res.LastAS == r.cfg.Owner {
			n++
		}
	}
	m.Recovered = n
	return n == len(r.cfg.Vantages) && n > 0
}

// handleClear withdraws the cleared alarm's counter-announcements.
func (r *Responder) handleClear(a *Alarm) {
	k := alarmKey{class: a.Class, rogue: a.Rogue, prefix: a.Prefix}
	m := r.byKey[k]
	if m == nil {
		return
	}
	delete(r.byKey, k)
	for _, p := range m.Announced {
		r.ctl.WithdrawCounter(p)
	}
	m.Withdrawn = true
	if r.OnWithdrawn != nil {
		r.OnWithdrawn(m)
	}
}
