// Package collectors models public BGP route collectors (RouteViews / RIPE
// RIS): a set of peer ASes whose best-route changes are recorded as
// timestamped update streams. The paper's efficacy and convergence
// experiments (§5.1, §5.2, Fig. 6) are computed from exactly this view —
// which ASes were routing through a poisoned AS, whether they found
// alternates, how many updates they emitted, and when they went quiet.
package collectors

import (
	"net/netip"
	"sort"
	"time"

	"lifeguard/internal/bgp"
	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
)

// Entry is one recorded update from a collector peer: the peer's new best
// path for the prefix (nil for a withdrawal/loss).
type Entry struct {
	At   time.Duration
	Path topo.Path
}

type key struct {
	peer   topo.ASN
	prefix netip.Prefix
}

// Collector records update streams from its peers. Construct with New; it
// chains onto the engine's OnBestChange hook, preserving any existing hook.
type Collector struct {
	peers   map[topo.ASN]bool
	streams map[key][]Entry

	entriesRecorded *obs.Counter
}

// Instrument registers the collector's metrics with reg. A nil registry
// leaves the collector uninstrumented.
func (c *Collector) Instrument(reg *obs.Registry) {
	reg.Describe("lifeguard_collectors_entries_recorded_total",
		"best-route changes recorded from collector peers")
	c.entriesRecorded = reg.Counter("lifeguard_collectors_entries_recorded_total")
}

// New attaches a collector to the engine with the given initial peers.
func New(e *bgp.Engine, peers ...topo.ASN) *Collector {
	c := &Collector{
		peers:   make(map[topo.ASN]bool),
		streams: make(map[key][]Entry),
	}
	for _, p := range peers {
		c.peers[p] = true
	}
	prev := e.OnBestChange
	e.OnBestChange = func(bc bgp.BestChange) {
		if prev != nil {
			prev(bc)
		}
		c.observe(bc)
	}
	return c
}

// AddPeer starts recording an additional peer AS.
func (c *Collector) AddPeer(asn topo.ASN) { c.peers[asn] = true }

// Peers returns the peer ASNs in ascending order.
func (c *Collector) Peers() []topo.ASN {
	out := make([]topo.ASN, 0, len(c.peers))
	for p := range c.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c *Collector) observe(bc bgp.BestChange) {
	if !c.peers[bc.AS] {
		return
	}
	k := key{peer: bc.AS, prefix: bc.Prefix}
	c.streams[k] = append(c.streams[k], Entry{At: bc.At, Path: bc.Path})
	c.entriesRecorded.Inc()
}

// Updates returns the full update stream from peer for prefix.
func (c *Collector) Updates(peer topo.ASN, prefix netip.Prefix) []Entry {
	return c.streams[key{peer: peer, prefix: prefix}]
}

// UpdatesSince returns the updates from peer for prefix at or after t.
func (c *Collector) UpdatesSince(peer topo.ASN, prefix netip.Prefix, t time.Duration) []Entry {
	all := c.Updates(peer, prefix)
	i := sort.Search(len(all), func(i int) bool { return all[i].At >= t })
	return all[i:]
}

// CurrentPath returns peer's latest recorded path for prefix (nil if the
// peer currently has no route or was never recorded).
func (c *Collector) CurrentPath(peer topo.ASN, prefix netip.Prefix) topo.Path {
	all := c.Updates(peer, prefix)
	if len(all) == 0 {
		return nil
	}
	return all[len(all)-1].Path
}

// HarvestASes returns every AS appearing on any peer's current path to
// prefix, excluding the origin itself — the §5 procedure for choosing which
// ASes to poison.
func (c *Collector) HarvestASes(prefix netip.Prefix, origin topo.ASN) []topo.ASN {
	seen := make(map[topo.ASN]bool)
	for p := range c.peers {
		for _, asn := range c.CurrentPath(p, prefix) {
			if asn != origin {
				seen[asn] = true
			}
		}
	}
	out := make([]topo.ASN, 0, len(seen))
	for asn := range seen {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PeerConvergence summarizes one peer's behaviour following an announcement
// made at some reference time.
type PeerConvergence struct {
	Peer topo.ASN
	// Updated is false when the peer emitted nothing (it never saw the
	// change — e.g. filtered upstream).
	Updated bool
	// First and Last bound the peer's update burst.
	First, Last time.Duration
	// NumUpdates counts updates in the burst; 1 means the peer converged
	// in a single step (no path exploration).
	NumUpdates int
	// FinalPath is the stable path after the burst (nil = lost route).
	FinalPath topo.Path
	// WasOnPath reports whether the peer's path immediately before the
	// reference time traversed the AS given to ConvergenceReport.
	WasOnPath bool
}

// SettleTime returns how long after the announcement the peer kept
// updating: Last - since.
func (pc *PeerConvergence) SettleTime(since time.Duration) time.Duration {
	if !pc.Updated {
		return 0
	}
	return pc.Last - since
}

// ConvergenceReport analyzes every peer's update stream for prefix after an
// announcement at "since". through identifies the poisoned AS (0 to skip
// WasOnPath classification).
func (c *Collector) ConvergenceReport(prefix netip.Prefix, since time.Duration, through topo.ASN) []PeerConvergence {
	var out []PeerConvergence
	for _, peer := range c.Peers() {
		all := c.Updates(peer, prefix)
		i := sort.Search(len(all), func(i int) bool { return all[i].At >= since })
		pc := PeerConvergence{Peer: peer}
		if i > 0 {
			prior := all[i-1].Path
			pc.WasOnPath = through != 0 && prior.Contains(through) && nextHopThrough(prior, through)
		}
		burst := all[i:]
		if len(burst) > 0 {
			pc.Updated = true
			pc.First = burst[0].At
			pc.Last = burst[len(burst)-1].At
			pc.NumUpdates = len(burst)
			pc.FinalPath = burst[len(burst)-1].Path
		} else if i > 0 {
			pc.FinalPath = all[i-1].Path
		}
		out = append(out, pc)
	}
	return out
}

// nextHopThrough reports whether the path actually forwards through asn.
// The origin's announcement pattern (prepends and poison tokens) forms the
// path's suffix starting at the first occurrence of the origin ASN — only
// the origin can insert its own ASN — so asn is a transit hop iff it
// appears before that point.
func nextHopThrough(p topo.Path, asn topo.ASN) bool {
	if len(p) == 0 {
		return false
	}
	origin := p[len(p)-1]
	for _, a := range p {
		if a == origin {
			return false
		}
		if a == asn {
			return true
		}
	}
	return false
}

// GlobalConvergenceTime returns the duration from the first to the last
// update any peer emitted for prefix at or after since, and false when no
// peer updated.
func (c *Collector) GlobalConvergenceTime(prefix netip.Prefix, since time.Duration) (time.Duration, bool) {
	first, last := time.Duration(-1), time.Duration(-1)
	for p := range c.peers {
		for _, e := range c.UpdatesSince(p, prefix, since) {
			if first < 0 || e.At < first {
				first = e.At
			}
			if e.At > last {
				last = e.At
			}
		}
	}
	if first < 0 {
		return 0, false
	}
	return last - first, true
}
