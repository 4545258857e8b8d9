package remedy

import (
	"net/netip"
	"sort"
	"time"

	"lifeguard/internal/bgp"
	"lifeguard/internal/topo"
)

// Counter-announcements are the hijack auto-responder's mitigation arm,
// distinct from the poison/unpoison repair cycle: a repair rewrites how the
// production prefix is announced, while a counter-announcement adds origin
// announcements (a hijacked more-specific re-claimed, or de-aggregated
// halves of an exactly-hijacked prefix) that are withdrawn when the attack
// clears. The two never share a prefix, so an active Repair and active
// counter-announcements coexist.

// CounterAnnouncement records one mitigation announcement.
type CounterAnnouncement struct {
	Prefix netip.Prefix
	// Poisoned names the rogue AS poisoned in the announcement pattern,
	// 0 for the plain baseline pattern (de-aggregation, or the Smith et
	// al. fallback when the rogue disables loop detection and cannot be
	// poisoned).
	Poisoned  topo.ASN
	Installed time.Duration
}

// CounterAnnounce announces prefix from the origin with the baseline
// pattern — poisoned against avoid when avoid != 0 — and tracks it for
// later withdrawal. Re-announcing a tracked prefix replaces its pattern.
func (c *Controller) CounterAnnounce(prefix netip.Prefix, avoid topo.ASN) *CounterAnnouncement {
	pattern := c.baseline()
	if avoid != 0 {
		pattern = c.poisonPattern(avoid)
	}
	c.eng.Announce(c.cfg.Origin, prefix, bgp.OriginConfig{Pattern: pattern})
	if c.counters == nil {
		c.counters = make(map[netip.Prefix]*CounterAnnouncement)
	}
	ca := &CounterAnnouncement{Prefix: prefix, Poisoned: avoid, Installed: c.clk.Now()}
	c.counters[prefix] = ca
	if avoid != 0 {
		c.obs.counterPoisoned.Inc()
	} else {
		c.obs.counterPlain.Inc()
	}
	return ca
}

// Halves splits prefix into its two more-specific halves — the ARTEMIS
// de-aggregation response to an exact-prefix hijack. False when the prefix
// is a /32 and cannot be split.
func Halves(prefix netip.Prefix) (lo, hi netip.Prefix, ok bool) {
	if !prefix.Addr().Is4() || prefix.Bits() >= 32 {
		return lo, hi, false
	}
	bits := prefix.Bits() + 1
	a := prefix.Masked().Addr().As4()
	lo = netip.PrefixFrom(netip.AddrFrom4(a), bits)
	a[prefix.Bits()/8] |= 1 << (7 - prefix.Bits()%8)
	hi = netip.PrefixFrom(netip.AddrFrom4(a), bits)
	return lo, hi, true
}

// WithdrawCounter withdraws one tracked counter-announcement; it reports
// whether the prefix was tracked.
func (c *Controller) WithdrawCounter(prefix netip.Prefix) bool {
	if _, ok := c.counters[prefix]; !ok {
		return false
	}
	delete(c.counters, prefix)
	c.eng.Withdraw(c.cfg.Origin, prefix)
	c.obs.counterWithdrawals.Inc()
	return true
}

// WithdrawAllCounters withdraws every tracked counter-announcement in
// sorted prefix order and returns how many were withdrawn.
func (c *Controller) WithdrawAllCounters() int {
	ps := make([]netip.Prefix, 0, len(c.counters))
	for p := range c.counters {
		ps = append(ps, p)
	}
	sortPrefixes(ps)
	for _, p := range ps {
		c.WithdrawCounter(p)
	}
	return len(ps)
}

// Counters lists the active counter-announcements in sorted prefix order.
func (c *Controller) Counters() []*CounterAnnouncement {
	out := make([]*CounterAnnouncement, 0, len(c.counters))
	for _, ca := range c.counters {
		out = append(out, ca)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix.Addr() != out[j].Prefix.Addr() {
			return out[i].Prefix.Addr().Less(out[j].Prefix.Addr())
		}
		return out[i].Prefix.Bits() < out[j].Prefix.Bits()
	})
	return out
}

func sortPrefixes(ps []netip.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Addr() != ps[j].Addr() {
			return ps[i].Addr().Less(ps[j].Addr())
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}
