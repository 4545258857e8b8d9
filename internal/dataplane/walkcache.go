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
// walks over and over across long stretches where neither changes, so the
// plane keeps them.
//
// Epoch contract. An entry is valid for one (RIB version, rule version)
// pair. RIB.RIBVersion advances on every loc-RIB write at any AS;
// ruleVersion advances in AddFailure, RemoveFailure and ClearFailures.
// Nothing else a walk reads can change: the topology (routers, border
// links, intra-AS paths) is immutable after Build, and every chaos fault
// acts through one of those two doors. A mismatch on either version drops
// the whole cache — invalidating per destination was measured and bought
// nothing (DESIGN.md §12).
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
// with its 16-hop array is ~0.6 KB, so the bound is ~10 MB — several times
// the distinct headers of the largest workload in the tree.
const walkCacheCap = 1 << 14

// walkKey is a walk's input with TTL folded out. IPv4 addresses are keyed
// as uint32: hashing two netip.Addr values cost more than the lookups the
// cache saves.
type walkKey struct {
	from     topo.RouterID
	dst, src uint32
}

// walkCache holds the walks of one epoch.
type walkCache struct {
	ribVersion, ruleVersion uint64
	entries                 map[walkKey]Result
}

// walkOutcome says how walk produced a Result; it indexes the hit/miss
// counters (the bypass slot stays nil, like the Delivered slot of drops).
type walkOutcome uint8

const (
	walkBypass walkOutcome = iota // cache stood down or header not cacheable
	walkHit
	walkMiss
)

// flushCause labels a cache invalidation.
type flushCause uint8

const (
	flushRIB flushCause = iota
	flushRules
	flushFull
)

var flushCauseNames = [flushFull + 1]string{"rib", "rules", "full"}

// flushWalks drops every cached walk.
func (pl *Plane) flushWalks(cause flushCause) {
	if len(pl.walks.entries) == 0 {
		return
	}
	clear(pl.walks.entries)
	pl.obs.cacheFlushes[cause].Inc()
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

// walk reports pkt's fate injected at from: out of the cache when the epoch
// still holds and the header is there, by walking (and storing) otherwise.
func (pl *Plane) walk(from topo.RouterID, pkt Packet) (Result, walkOutcome) {
	if pl.probRules > 0 || !pkt.Dst.Is4() || !pkt.Src.Is4() {
		return pl.forward(from, pkt), walkBypass
	}
	c := &pl.walks
	if v := pl.rib.RIBVersion(); v != c.ribVersion {
		pl.flushWalks(flushRIB)
		c.ribVersion = v
	}
	if pl.ruleVersion != c.ruleVersion {
		pl.flushWalks(flushRules)
		c.ruleVersion = pl.ruleVersion
	}
	ttl := pkt.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	key := walkKey{from: from, dst: v4(pkt.Dst), src: v4(pkt.Src)}
	if full, ok := c.entries[key]; ok {
		if res, ok := full.atTTL(ttl); ok {
			pl.seq++
			return res, walkHit
		}
	}
	pkt.TTL = max(ttl, DefaultTTL)
	full := pl.forward(from, pkt)
	// Clip so that an append through any handed-out Result reallocates
	// instead of scribbling on the shared array.
	full.Hops = slices.Clip(full.Hops)
	if len(c.entries) >= walkCacheCap {
		pl.flushWalks(flushFull)
	}
	c.entries[key] = full
	res, _ := full.atTTL(ttl)
	return res, walkMiss
}
