// Package remedy is LIFEGUARD's repair engine: it owns an origin AS's
// production and sentinel prefixes, keeps the prepended baseline
// announcement that smooths later convergence (§3.1.1), decides whether an
// isolated failure justifies poisoning (§4.2), crafts the poisoned —
// optionally selective (§3.1.2) — announcements, and watches the sentinel
// to withdraw the poison once the avoided path heals.
package remedy

import (
	"fmt"
	"net/netip"
	"time"

	"lifeguard/internal/bgp"
	"lifeguard/internal/core/isolation"
	"lifeguard/internal/obs"
	"lifeguard/internal/probe"
	"lifeguard/internal/simclock"
	"lifeguard/internal/splice"
	"lifeguard/internal/topo"
)

// Action is the outcome of a repair decision.
type Action int

// Repair decisions.
const (
	NoFailure           Action = iota // report was healed/empty
	TooYoung                          // outage hasn't aged past the poison threshold
	NotPoisonable                     // blamed AS is the origin, the destination, or unknown
	NoAlternate                       // no valley-free path around the blamed AS
	Poisoned                          // poisoned announcement installed
	SelectivelyPoisoned               // per-provider poison installed
	AlreadyActive                     // a repair for this AS is already in place
)

// String names the action.
func (a Action) String() string {
	switch a {
	case NoFailure:
		return "no-failure"
	case TooYoung:
		return "too-young"
	case NotPoisonable:
		return "not-poisonable"
	case NoAlternate:
		return "no-alternate"
	case Poisoned:
		return "poisoned"
	case SelectivelyPoisoned:
		return "selectively-poisoned"
	case AlreadyActive:
		return "already-active"
	default:
		return "unknown"
	}
}

// SentinelMode selects among the §7.2 sentinel designs.
type SentinelMode int

// Sentinel designs (§4.2, §7.2).
const (
	// SentinelLessSpecific announces a covering less-specific with an
	// unused sub-prefix: captives keep a backup route, and probes from
	// the unused half detect repair. The paper's deployed design.
	SentinelLessSpecific SentinelMode = iota
	// SentinelNonAdjacent uses an unused prefix that does not cover
	// production: repair detection works, but captives get no backup.
	SentinelNonAdjacent
	// SentinelPingPoisoned has no spare address space at all: a covering
	// less-specific (fully in use) is announced, and repair is detected
	// by pinging hosts inside the poisoned AS — their replies route via
	// the unpoisoned less-specific, exercising the failed element.
	SentinelPingPoisoned
)

// String names the mode.
func (m SentinelMode) String() string {
	switch m {
	case SentinelNonAdjacent:
		return "non-adjacent"
	case SentinelPingPoisoned:
		return "ping-poisoned"
	default:
		return "less-specific"
	}
}

// Config describes the origin deployment.
type Config struct {
	// Origin is the AS LIFEGUARD speaks for.
	Origin topo.ASN
	// Mode selects the sentinel design. Default SentinelLessSpecific.
	Mode SentinelMode
	// MinOutageAge gates poisoning: outages younger than this are likely
	// to resolve on their own (Fig. 5 analysis). Default 5 minutes.
	MinOutageAge time.Duration
	// SentinelInterval is how often the sentinel is probed while a
	// poison is active. Default 2 minutes.
	SentinelInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.MinOutageAge == 0 {
		c.MinOutageAge = 5 * time.Minute
	}
	if c.SentinelInterval == 0 {
		c.SentinelInterval = 2 * time.Minute
	}
	return c
}

// prependLength is the length of the baseline announcement pattern, O-O-O:
// long enough that a single poison (O-A-O) keeps the path length and the
// next hop unchanged (§3.1.1).
const prependLength = 3

// Repair records one poisoning episode.
type Repair struct {
	Avoided topo.ASN
	// Selective, when set, names the provider that kept the unpoisoned
	// announcement.
	Selective topo.ASN
	// Victim is the address whose reachability triggered the repair;
	// sentinel probes target it to detect healing.
	Victim         netip.Addr
	Started, Ended time.Duration
	SentinelChecks int
}

// Controller manages the origin's announcements.
type Controller struct {
	eng *bgp.Engine
	pr  *probe.Prober
	clk *simclock.Scheduler
	cfg Config

	// production and sentinel are the prefixes the controller manages, from
	// the topo address plan for the origin and the sentinel mode.
	production, sentinel netip.Prefix

	// OnUnpoison, if set, fires when a repair is reverted.
	OnUnpoison func(*Repair)

	active *Repair
	// History lists finished and active repairs.
	History []*Repair

	// counters tracks the hijack responder's counter-announcements (see
	// counter.go); nil until the first CounterAnnounce.
	counters map[netip.Prefix]*CounterAnnouncement

	ticker    simclock.EventID
	suspended bool

	obs controllerObs
}

// controllerObs holds the repair engine's metric handles; all-nil means
// uninstrumented.
type controllerObs struct {
	poisons            *obs.Counter
	selectivePoisons   *obs.Counter
	unpoisons          *obs.Counter
	sentinelChecks     *obs.Counter
	sentinelHealed     *obs.Counter
	counterPlain       *obs.Counter
	counterPoisoned    *obs.Counter
	counterWithdrawals *obs.Counter
}

// Instrument registers the repair engine's metrics with reg. A nil
// registry leaves the controller uninstrumented.
func (c *Controller) Instrument(reg *obs.Registry) {
	reg.Describe("lifeguard_remedy_poisons_total",
		"poisoned announcements installed, by kind (full or selective)")
	reg.Describe("lifeguard_remedy_unpoisons_total",
		"repairs reverted to the baseline announcement")
	reg.Describe("lifeguard_remedy_sentinel_checks_total",
		"sentinel probes issued while a repair was active, by outcome")
	c.obs.poisons = reg.Counter("lifeguard_remedy_poisons_total", obs.L("kind", "full"))
	c.obs.selectivePoisons = reg.Counter("lifeguard_remedy_poisons_total", obs.L("kind", "selective"))
	c.obs.unpoisons = reg.Counter("lifeguard_remedy_unpoisons_total")
	c.obs.sentinelChecks = reg.Counter("lifeguard_remedy_sentinel_checks_total", obs.L("outcome", "pending"))
	c.obs.sentinelHealed = reg.Counter("lifeguard_remedy_sentinel_checks_total", obs.L("outcome", "healed"))
	reg.Describe("lifeguard_remedy_counter_announcements_total",
		"hijack counter-announcements installed, by kind (plain or poisoned)")
	reg.Describe("lifeguard_remedy_counter_withdrawals_total",
		"hijack counter-announcements withdrawn after the attack cleared")
	c.obs.counterPlain = reg.Counter("lifeguard_remedy_counter_announcements_total", obs.L("kind", "plain"))
	c.obs.counterPoisoned = reg.Counter("lifeguard_remedy_counter_announcements_total", obs.L("kind", "poisoned"))
	c.obs.counterWithdrawals = reg.Counter("lifeguard_remedy_counter_withdrawals_total")
}

// New returns a controller; call AnnounceBaseline before relying on it.
func New(eng *bgp.Engine, pr *probe.Prober, clk *simclock.Scheduler, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	if eng.Topology().AS(cfg.Origin) == nil {
		panic(fmt.Sprintf("remedy: unknown origin AS %d", cfg.Origin))
	}
	c := &Controller{eng: eng, pr: pr, clk: clk, cfg: cfg,
		production: topo.ProductionPrefix(cfg.Origin),
		sentinel:   topo.SentinelPrefix(cfg.Origin),
	}
	if cfg.Mode == SentinelNonAdjacent {
		c.sentinel = topo.NonAdjacentSentinelPrefix(cfg.Origin)
	}
	return c
}

// Config returns the effective configuration.
func (c *Controller) Config() Config { return c.cfg }

// Prefixes returns the production and sentinel prefixes the controller
// announces.
func (c *Controller) Prefixes() (production, sentinel netip.Prefix) {
	return c.production, c.sentinel
}

// Active returns the in-progress repair, or nil.
func (c *Controller) Active() *Repair { return c.active }

// baseline returns the prepended baseline pattern (O-O-O for length 3).
func (c *Controller) baseline() topo.Path {
	p := make(topo.Path, prependLength)
	for i := range p {
		p[i] = c.cfg.Origin
	}
	return p
}

// poisonPattern returns the baseline with its middle element replaced by
// the avoided AS: O-A-O for length 3 — same length and next hop as the
// baseline, so unaffected ASes converge in a single update (§3.1.1).
func (c *Controller) poisonPattern(avoid topo.ASN) topo.Path {
	p := c.baseline()
	p[len(p)/2] = avoid
	return p
}

// AnnounceBaseline (re)announces the production prefix with the prepended
// baseline and the sentinel with the same unpoisoned pattern.
func (c *Controller) AnnounceBaseline() {
	c.eng.Announce(c.cfg.Origin, c.production, bgp.OriginConfig{Pattern: c.baseline()})
	c.eng.Announce(c.cfg.Origin, c.sentinel, bgp.OriginConfig{Pattern: c.baseline()})
}

// DecideAndRepair applies the §4.2 policy to an isolation report: poison
// only if the outage is old enough, the blamed AS is a poisonable transit,
// and an alternate policy-compliant path exists for the victim.
func (c *Controller) DecideAndRepair(rep *isolation.Report, outageStart time.Duration) Action {
	if rep == nil || rep.Healed || rep.Blamed == 0 {
		return NoFailure
	}
	if c.clk.Now()-outageStart < c.cfg.MinOutageAge {
		return TooYoung
	}
	victimAS, ok := topo.OwnerOf(rep.Target)
	if !ok {
		return NotPoisonable
	}
	if rep.Blamed == c.cfg.Origin || rep.Blamed == victimAS {
		// Failures inside the edge ASes are for their operators; the
		// paper scopes LIFEGUARD to transit problems.
		return NotPoisonable
	}
	if c.active != nil {
		// One repair at a time: the paper assumes a single failure.
		return AlreadyActive
	}
	if !splice.CanReach(c.eng.Topology(), victimAS, c.cfg.Origin, splice.Avoid1(rep.Blamed)) {
		return NoAlternate
	}
	c.Poison(rep.Blamed, rep.Target)
	return Poisoned
}

// Poison installs the poisoned production announcement avoiding asn and
// begins sentinel monitoring against victim.
func (c *Controller) Poison(asn topo.ASN, victim netip.Addr) *Repair {
	r := &Repair{Avoided: asn, Victim: victim, Started: c.clk.Now()}
	c.active = r
	c.History = append(c.History, r)
	c.obs.poisons.Inc()
	c.eng.Announce(c.cfg.Origin, c.production, bgp.OriginConfig{Pattern: c.poisonPattern(asn)})
	c.armSentinel()
	return r
}

// PoisonSelective poisons asn on announcements via every provider except
// keepVia (§3.1.2): asn hears the clean path through keepVia's side and
// keeps routing to the origin — but only via that side, steering it off the
// failing link without cutting it off.
func (c *Controller) PoisonSelective(asn topo.ASN, keepVia topo.ASN, victim netip.Addr) *Repair {
	r := &Repair{Avoided: asn, Selective: keepVia, Victim: victim, Started: c.clk.Now()}
	c.active = r
	c.History = append(c.History, r)
	c.obs.selectivePoisons.Inc()
	per := make(map[topo.ASN]topo.Path)
	for _, p := range c.eng.Topology().Providers(c.cfg.Origin) {
		if p != keepVia {
			per[p] = c.poisonPattern(asn)
		}
	}
	c.eng.Announce(c.cfg.Origin, c.production, bgp.OriginConfig{
		Pattern:     c.baseline(),
		PerNeighbor: per,
	})
	c.armSentinel()
	return r
}

// Unpoison reverts to the baseline announcement and closes the active
// repair.
func (c *Controller) Unpoison() {
	if c.active == nil {
		return
	}
	c.clk.Cancel(c.ticker)
	c.active.Ended = c.clk.Now()
	c.obs.unpoisons.Inc()
	done := c.active
	c.active = nil
	c.AnnounceBaseline()
	if c.OnUnpoison != nil {
		c.OnUnpoison(done)
	}
}

// Suspend cancels the sentinel ticker without closing the active repair —
// the control-plane-down half of a graceful restart. The poisoned
// announcement stays in the routing system (stale-route retention); only
// the periodic healing checks pause. No-op when idle or already suspended.
func (c *Controller) Suspend() {
	if c.suspended {
		return
	}
	c.suspended = true
	if c.active != nil {
		c.clk.Cancel(c.ticker)
	}
}

// Resume re-arms the sentinel ticker after a Suspend. The next check fires
// one SentinelInterval from now, so a restart defers — never skips — the
// healing decision. No-op unless suspended.
func (c *Controller) Resume() {
	if !c.suspended {
		return
	}
	c.suspended = false
	if c.active != nil {
		c.armSentinel()
	}
}

// armSentinel schedules periodic sentinel checks while a repair is active.
// Suspended controllers don't arm; Resume re-arms for them.
func (c *Controller) armSentinel() {
	if c.suspended {
		return
	}
	var tick func()
	tick = func() {
		if c.active == nil {
			return
		}
		if c.CheckSentinel() {
			c.Unpoison()
			return
		}
		c.ticker = c.clk.After(c.cfg.SentinelInterval, tick)
	}
	c.ticker = c.clk.After(c.cfg.SentinelInterval, tick)
}

// CheckSentinel tests whether the avoided path has healed, per the
// configured §7.2 sentinel design. In every mode the reply traffic routes
// via the unpoisoned sentinel announcement — through the avoided AS when
// that is the preferred path — so success means the underlying failure is
// gone (§4.2).
func (c *Controller) CheckSentinel() bool {
	if c.active == nil {
		return false
	}
	c.active.SentinelChecks++
	healed := c.sentinelHealed()
	if healed {
		c.obs.sentinelHealed.Inc()
	} else {
		c.obs.sentinelChecks.Inc()
	}
	return healed
}

// sentinelHealed issues one sentinel probe per the configured mode.
func (c *Controller) sentinelHealed() bool {
	hub := c.eng.Topology().AS(c.cfg.Origin).Routers[0]
	switch c.cfg.Mode {
	case SentinelNonAdjacent:
		src := topo.NonAdjacentProbeAddr(c.cfg.Origin)
		return c.pr.PingFromAddr(hub, src, c.active.Victim).OK
	case SentinelPingPoisoned:
		// No spare space: ping a host inside the poisoned AS from the
		// production prefix; its reply follows the less-specific route.
		as := c.eng.Topology().AS(c.active.Avoided)
		if as == nil || len(as.Routers) == 0 {
			return false
		}
		dst := c.eng.Topology().Router(as.Routers[0]).Addr
		return c.pr.PingFromAddr(hub, topo.ProductionAddr(c.cfg.Origin), dst).OK
	default:
		src := topo.SentinelProbeAddr(c.cfg.Origin)
		return c.pr.PingFromAddr(hub, src, c.active.Victim).OK
	}
}
