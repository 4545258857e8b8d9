package dataplane

import (
	"encoding/binary"
	"net/netip"
	"slices"

	"lifeguard/internal/topo"
)

// The walk cache. Between two changes to the routing state or the failure
// table, a forwarding walk is a pure function of (from, Dst, Src, TTL): Dst
// drives every LPM lookup and intra-AS path, Src and Dst drive rule
// matching, TTL bounds the walk. LIFEGUARD's steady state — monitor rounds,
// atlas traceroutes, isolation probes — asks for the same few thousand
// walks over and over, so the plane keeps them.
//
// Validity contract. A cached walk lives until an AS it crossed changes.
// Each entry carries one stamp per AS run of its Hops — every AS a recorded
// hop sits in, not only those whose RIB was consulted: a walk blackholed at
// an ingress router never looks its AS up, yet the rule that stopped it
// lives there. An AS's stamp is RIB.FwdVersion plus the plane's rule version
// for that AS; both only grow, so an unchanged sum means neither moved. The
// first advances when a loc-RIB write at that AS changes what a packet does
// there (a route appearing or vanishing, its next hop, Originated) and not
// when only the path attribute behind the same next hop is rewritten, which
// is most of what a poison does (§3.1.1). The second advances in AddFailure,
// RemoveFailure and ClearFailures for every AS in the rule's scope. Nothing
// else a walk reads can change: the topology (routers, border links,
// intra-AS paths) is immutable after Build, and every chaos fault acts
// through one of those two doors. A hit is answered once the entry's stamps
// have been checked; an entry whose stamps moved is re-walked and replaced,
// alone. The global (RIBVersion, ruleVersion) pair survives as a shortcut:
// an entry last checked at the current sum needs no check.
//
// TTL is not part of the key. step spends TTL before it applies a router's
// rules and the injecting router spends none, so a packet with TTL k sees
// exactly the first k+1 hops of the unbounded walk and expires at hop k if
// the walk goes on that far. The cache therefore stores the walk at
// max(TTL, DefaultTTL) and answers any smaller TTL by truncating it, which
// makes a traceroute one walk instead of one per TTL.
//
// A live fractional-DropProb rule makes fates per-packet and stands the
// cache down; non-IPv4 headers (which the address plan never routes) bypass
// it. Either way pl.seq advances exactly as it would on a walk.

// walkCacheCap bounds the cache; reaching it drops every entry. An entry
// with its 16-hop array is ~0.7 KB, so the bound is ~12 MB — several times
// the distinct headers of the largest workload in the tree.
const walkCacheCap = 1 << 14

// walkKey is a walk's input with TTL folded out. IPv4 addresses are keyed
// as uint32: hashing two netip.Addr values cost more than the lookups the
// cache saves.
type walkKey struct {
	from     topo.RouterID
	dst, src uint32
}

// asStamp is the stamp of one AS (by dense index, see Plane.routerAS) as a
// walk through it found it.
type asStamp struct {
	as int32
	v  uint64
}

// walkEntry is one stored walk: the Result at max(TTL, DefaultTTL), a stamp
// per AS run of its Hops, and the epoch at which those stamps last held.
type walkEntry struct {
	full    Result
	stamps  []asStamp
	checked uint64
}

// walkOutcome says how walk produced a Result; it indexes the hit/miss
// counters (the bypass slot stays nil, like the Delivered slot of drops).
type walkOutcome uint8

const (
	walkBypass walkOutcome = iota // cache stood down or header not cacheable
	walkHit
	walkMiss
)

// epoch sums the two global versions; both only grow, so two equal readings
// mean no route and no rule changed anywhere in between.
func (pl *Plane) epoch() uint64 { return pl.rib.RIBVersion() + pl.ruleVersion }

// stamp is the current stamp of the AS with dense index as.
func (pl *Plane) stamp(as int32) uint64 { return pl.rib.FwdVersion(int(as)) + pl.ruleVer[as] }

// stampRuns appends to buf the current stamp of every AS run of hops.
func (pl *Plane) stampRuns(buf []asStamp, hops []Hop) []asStamp {
	prev := int32(-1)
	for i := range hops {
		if as := pl.routerAS[hops[i].Router]; as != prev {
			buf = append(buf, asStamp{as: as, v: pl.stamp(as)})
			prev = as
		}
	}
	return buf
}

// current reports whether no AS e's walk crossed has changed since the walk.
func (pl *Plane) current(e *walkEntry, epoch uint64) bool {
	if e.checked == epoch {
		return true
	}
	for _, s := range e.stamps {
		if pl.stamp(s.as) != s.v {
			return false
		}
	}
	e.checked = epoch
	return true
}

// v4 returns the IPv4 address a as an integer.
func v4(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// atTTL derives the fate of the same header sent with TTL k from a stored
// walk. It fails only when the stored walk itself ran out of TTL short of
// k, in which case nothing is known about the hops beyond.
func (full *Result) atTTL(k int) (Result, bool) {
	if len(full.Hops) > k {
		h := full.Hops[k]
		return Result{Reason: TTLExpired, Hops: full.Hops[: k+1 : k+1], LastAS: h.AS, LastRouter: h.Router}, true
	}
	return *full, full.Reason != TTLExpired
}

// walk reports pkt's fate injected at from: out of the cache when the header
// is there and no AS on its walk has changed, by walking (and storing)
// otherwise.
func (pl *Plane) walk(from topo.RouterID, pkt Packet) (Result, walkOutcome) {
	if pl.probRules > 0 || !pkt.Dst.Is4() || !pkt.Src.Is4() {
		return pl.forward(from, pkt), walkBypass
	}
	ttl := pkt.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	epoch := pl.epoch()
	key := walkKey{from: from, dst: v4(pkt.Dst), src: v4(pkt.Src)}
	e := pl.walks[key]
	if e != nil {
		if !pl.current(e, epoch) {
			pl.obs.cacheStale.Inc()
		} else if res, ok := e.full.atTTL(ttl); ok {
			pl.seq++
			return res, walkHit
		}
	}
	pkt.TTL = max(ttl, DefaultTTL)
	full := pl.forward(from, pkt)
	if e == nil {
		if len(pl.walks) >= walkCacheCap {
			clear(pl.walks)
			pl.obs.cacheFull.Inc()
		}
		e = new(walkEntry)
		pl.walks[key] = e
	}
	// Clip so that an append through any handed-out Result reallocates
	// instead of scribbling on the shared array.
	full.Hops = slices.Clip(full.Hops)
	e.full = full
	e.stamps = pl.stampRuns(e.stamps[:0], full.Hops)
	e.checked = epoch
	res, _ := full.atTTL(ttl)
	return res, walkMiss
}
