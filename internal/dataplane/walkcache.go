package dataplane

import (
	"encoding/binary"
	"net/netip"

	"lifeguard/internal/topo"
)

// The walk cache. Between two changes to the routing state or the failure
// table, a forwarding walk is a pure function of (from, Dst, Src, TTL): Dst
// drives every LPM lookup and intra-AS path, Src and Dst drive rule
// matching, TTL bounds the walk. LIFEGUARD's steady state — monitor rounds,
// atlas traceroutes, isolation probes — asks for the same few thousand
// walks over and over, so the plane keeps them.
//
// Validity contract. A cached walk is redone only when something it read
// changed. It read two things, and each has its own door.
//
// Routes. A walk reads NextHop(AS, Dst) at the ASes it crosses, so it is
// stale only if some AS it crossed forwards Dst differently. Two counters
// bound that from either side, and an entry records both when it is stored:
// one stamp per AS run of its Hops (RIB.FwdVersion: that AS changed how it
// forwards some prefix) and RIB.DstVersion(Dst) (some AS changed how it
// forwards Dst). Speaker.decide bumps both for the one event that matters —
// a route for a prefix covering Dst appearing, vanishing, or changing its
// next hop or Originated at a crossed AS — and neither when only the path
// attribute behind the same next hop is rewritten, which is most of what a
// poison does (§3.1.1). Both only grow, so the entry stands if either all
// its AS stamps or the destination version is unchanged. The check asks the
// per-AS question first (slice reads) and the destination question only when
// a stamp has moved; when the destination then says "not for Dst", the
// stamps are re-baselined, so that a later change for Dst at an AS off the
// walk does not meet the old stamps and condemn it. The shape of the
// longest-prefix match needs no separate guard: a more-specific of Dst
// getting its first route at an AS is a forwarding change for that prefix,
// and DstVersion sums over every interned prefix covering Dst, not over the
// one Dst matches today. RIBVersion survives as a shortcut: an entry last
// checked at the current reading needs no check.
//
// Rules. A walk reads the failure table at every router it visits and every
// link it crosses. AddFailure, RemoveFailure and ClearFailures find the
// walks the rule can have stopped or can now stop — stored walks whose
// header the rule's DstWithin/SrcWithin admit and whose stamps name an AS in
// the rule's scope — and mark them dead on the spot; no version is kept.
// The stamps cover every AS a recorded hop sits in, not only those whose RIB
// was consulted: a walk blackholed at an ingress router never looks its AS
// up, yet the rule that stopped it lives there.
//
// Nothing else a walk reads can change: the topology (routers, border
// links, intra-AS paths) is immutable after Build, and every chaos fault
// acts through one of those doors. An entry that fails its check is
// re-walked in place, alone.
//
// Handles. A caller that will ask for the same header again holds a Flow,
// which remembers the header's entry and skips the map lookup; Plane.Forward
// makes a Flow for the one packet, so past the lookup there is one path
// (Flow.walk). Flow.ForwardN sends a run of one header — a traffic flow
// group — by walking it once and counting the repeats as the hits they would
// be (drawing each, if the walk passed lossy rules). The eager rule kill
// must reach every entry a handle can answer from, so no live entry is ever
// outside the map: entries are re-walked in place, never replaced, and the
// one event that empties the map (the size cap) advances a generation that
// every handle compares before trusting its pointer.
//
// Held answers. A caller that keeps an answer it derived from Flows — a
// ping is one or two walks and a responder's decision, a traceroute one
// walk per TTL and the replies — may hand it out again without asking them,
// as long as asking would be a hit with the same Result. Flow.Stands says
// so for one flow, from its own slot alone: the slot is the one the flow
// last answered from and nobody has re-walked it since (the entry counts
// its walks, the flow the count it last saw), the generation holds, the
// walk passed no lossy rule, and current, called as the walk calls it,
// finds it standing. A BGP update or a rule elsewhere therefore leaves a
// held answer alone unless it reaches a slot the answer read. Each packet
// of the repeat is counted with Flow.Repeat, as the hit it would have been.
//
// TTL is not part of the key. step spends TTL before it applies a router's
// rules and the injecting router spends none, so a packet with TTL k sees
// exactly the first k+1 hops of the unbounded walk and expires at hop k if
// the walk goes on that far. The cache therefore stores the walk at
// max(TTL, DefaultTTL) and answers any smaller TTL by truncating it, which
// makes a traceroute one walk instead of one per TTL.
//
// A fractional-DropProb rule drops by a pure hash of (ProbSeed, seq), alike
// at every router, so a stored walk passes such rules and lists them in hop
// order; each packet draws its seq against the list and is cut at the first
// drop, unless TTL stops it first. Non-IPv4 headers (which the address plan
// never routes) bypass the cache. pl.seq advances exactly as on a walk.

// walkCacheCap bounds the cache; reaching it drops every entry (and the
// slab chunk being filled, so that new entries do not share a chunk with the
// dropped ones). It is several times the distinct headers of the largest
// workload in the tree.
const walkCacheCap = 1 << 14

// slabHops is the size of a slab chunk, in hops (8 KB). A stored walk's hops
// are carved out of the current chunk (see Plane.keep), so a miss allocates
// a chunk once every slabHops/len(Hops) misses instead of an array each
// time. A chunk stays alive while any slice of it does — a live entry, or a
// Result a caller kept — so the worst case is one chunk per live entry:
// walkCacheCap × 8 KB = 128 MB, with every entry the last one left in its
// chunk. A re-walk writes new space, so a chunk is let go once every walk
// carved from it has been redone or dropped and no caller holds one.
//
// The size trades that worst case against objects per miss: with walks of
// about 10 hops, repair's allocs_per_op is 65.8 at 1 024 hops (512 MB worst
// case), 68.5 at 256 and 72.2 at 128 (64 MB), beside 183.3 with an array
// per miss.
const slabHops = 256

// walkKey is a walk's input with TTL folded out. IPv4 addresses are keyed
// as uint32: hashing two netip.Addr values cost more than the lookups the
// cache saves.
type walkKey struct {
	from     topo.RouterID
	dst, src uint32
}

// asStamp is RIB.FwdVersion of one AS (by dense index, see Plane.routerAS)
// as a walk through it found it.
type asStamp struct {
	as int32
	v  uint64
}

// lossPoint is a probabilistic rule a stored walk passed: at Hops[hop], or
// on the link out of it.
type lossPoint struct {
	hop  int
	seed uint64
	prob float64
}

// walkEntry is one header's slot: the Result at max(TTL, DefaultTTL), the
// lossy rules it passed, a stamp per AS run of its Hops, the destination's
// version, the RIBVersion at which those last held, and how many times the
// slot was walked. live is false for a slot not walked yet and for a walk a
// rule change killed.
type walkEntry struct {
	full    Result
	losses  []lossPoint
	stamps  []asStamp
	dstVer  uint64
	checked uint64
	walks   uint64
	live    bool
}

// walkOutcome says how walk produced a Result; it indexes the hit/miss
// counters (the bypass slot stays nil, like the Delivered slot of drops).
type walkOutcome uint8

const (
	walkBypass walkOutcome = iota // header not cacheable
	walkHit
	walkMiss
)

// stampRuns appends to buf the current stamp of every AS run of hops.
func (pl *Plane) stampRuns(buf []asStamp, hops []Hop) []asStamp {
	prev := int32(-1)
	for i := range hops {
		if as := pl.routerAS[hops[i].Router]; as != prev {
			buf = append(buf, asStamp{as: as, v: pl.rib.FwdVersion(int(as))})
			prev = as
		}
	}
	return buf
}

// current reports whether e's walk toward dst still stands: no rule change
// killed it, and either no AS it crossed has changed its forwarding or none
// anywhere has changed it for dst.
func (pl *Plane) current(e *walkEntry, dst netip.Addr, epoch uint64) bool {
	if !e.live {
		return false
	}
	if e.checked == epoch {
		return true
	}
	for i := range e.stamps {
		if s := e.stamps[i]; pl.rib.FwdVersion(int(s.as)) == s.v {
			continue
		}
		if pl.rib.DstVersion(dst) != e.dstVer {
			return false
		}
		for j := i; j < len(e.stamps); j++ {
			e.stamps[j].v = pl.rib.FwdVersion(int(e.stamps[j].as))
		}
		pl.obs.cacheKept.Inc()
		break
	}
	e.checked = epoch
	return true
}

// v4 returns the IPv4 address a as an integer.
func v4(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// addr4 is v4's inverse.
func addr4(u uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], u)
	return netip.AddrFrom4(b)
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

// draw cuts *res, the fate at TTL k of the packet numbered seq, at the first
// of e's lossy rules that drops it before hop k, where TTL stops it.
func (e *walkEntry) draw(res *Result, k int, seq uint64) {
	for _, p := range e.losses {
		if p.hop >= k {
			return
		}
		if lost(p.seed, seq, p.prob) {
			h := e.full.Hops[p.hop]
			*res = Result{Reason: Blackhole, Hops: e.full.Hops[: p.hop+1 : p.hop+1], LastAS: h.AS, LastRouter: h.Router}
			return
		}
	}
}

// keep copies hops, a walk's pl.hopBuf, into the slab and returns the copy,
// carved with its capacity equal to its length: an append through any
// Result handed out from it reallocates instead of writing over the next
// walk's hops. A chunk is never written twice, so a Result keeps its hops
// when its header is re-walked.
func (pl *Plane) keep(hops []Hop) []Hop {
	n := len(hops)
	if cap(pl.slab)-len(pl.slab) < n {
		pl.slab = make([]Hop, 0, max(slabHops, n))
	}
	l := len(pl.slab)
	pl.slab = append(pl.slab, hops...)
	return pl.slab[l : l+n : l+n]
}

// entry returns key's slot, making an empty one (and room for it, by
// dropping every entry at walkCacheCap) when the header has none.
func (pl *Plane) entry(key walkKey) *walkEntry {
	e := pl.walks[key]
	if e == nil {
		if len(pl.walks) >= walkCacheCap {
			clear(pl.walks)
			pl.slab = nil
			pl.gen++
			pl.obs.cacheFull.Inc()
		}
		e = new(walkEntry)
		pl.walks[key] = e
	}
	return e
}

// walk reports pkt's fate injected at from: a Flow made for the one packet.
func (pl *Plane) walk(from topo.RouterID, pkt Packet) (Result, walkOutcome) {
	f := pl.Flow(from, pkt.Src, pkt.Dst)
	return f.walk(pkt.TTL)
}

// note counts k packets that met res's fate and how the cache produced them.
func (pl *Plane) note(res *Result, how walkOutcome, k int64) {
	pl.obs.cacheOutcomes[how].Add(k)
	pl.obs.forwarded.Add(k)
	if res.Reason != Delivered {
		pl.obs.drops[res.Reason].Add(k)
	}
}

// Flow is a caller's hold on one header — packets injected at one router
// with one source and destination — for callers that send it again and
// again (a monitor pair every round, a traceroute at every TTL). It keeps
// the header's walk-cache slot, so Forward skips the lookup that
// Plane.Forward pays; in every other respect the two are the same call. A
// Flow is bound to the Plane that made it and, like the Plane, to one
// goroutine.
type Flow struct {
	pl       *Plane
	e        *walkEntry // the header's slot, nil until first asked for
	gen      uint64     // pl.gen when e was resolved
	seen     uint64     // e.walks when the flow last answered from e
	src, dst netip.Addr
	from     topo.RouterID
	keyed    bool // both addresses IPv4: the header has a slot
}

// Flow returns a handle on the header (src, dst) injected at from.
func (pl *Plane) Flow(from topo.RouterID, src, dst netip.Addr) Flow {
	return Flow{pl: pl, from: from, src: src, dst: dst, keyed: dst.Is4() && src.Is4()}
}

// Forward is Plane.Forward for the flow's header with the given TTL (0: the
// default): same fate, same counters, same sequence numbering, same sharing
// of Result.Hops.
func (f *Flow) Forward(ttl int) Result {
	res, how := f.walk(ttl)
	f.pl.note(&res, how, 1)
	return res
}

// ForwardN sends n packets of the flow's header at the default TTL and
// reports how many met each fate, indexed by DropReason. It is n calls of
// Forward(0) — same fates, same counters, same sequence numbering — without
// the n Results: once the header's slot has answered the first packet, it
// holds the header's current walk, so every other packet would be a hit
// with the same fate, and those n-1 are added, not walked — unless the walk
// passed lossy rules, when each hit draws its own. A header with no slot
// walks every packet.
func (f *Flow) ForwardN(n int64) [ForwardLoop + 1]int64 {
	var fates [ForwardLoop + 1]int64
	pl := f.pl
	for i := int64(0); i < n; i++ {
		res, how := f.walk(0)
		pl.note(&res, how, 1)
		fates[res.Reason]++
		if how != walkBypass && len(f.e.losses) == 0 {
			rest := n - 1 - i
			pl.seq += uint64(rest) // as rest walks would have numbered them
			pl.note(&res, walkHit, rest)
			fates[res.Reason] += rest
			break
		}
	}
	return fates
}

// Stands reports whether Forward at the TTL of the flow's last answer would
// be a hit with the same Result: the slot it answered from is still its
// slot, nobody has re-walked it since, it passed no lossy rule, and it is
// current. It checks the slot as a walk would, so calling it costs the
// cache's counters nothing a walk would not count.
func (f *Flow) Stands() bool {
	e := f.e
	return e != nil && f.gen == f.pl.gen && e.walks == f.seen && len(e.losses) == 0 &&
		f.pl.current(e, f.dst, f.pl.rib.RIBVersion())
}

// Repeat counts one more packet of a standing flow's header that met res's
// fate, the Result its last Forward returned, as that Forward would count
// it: one sequence number, one hit, one packet forwarded and, unless
// delivered, one dropped.
func (f *Flow) Repeat(res *Result) {
	f.pl.seq++
	f.pl.note(res, walkHit, 1)
}

// walk reports the fate of the flow's header at the given TTL: by walking
// when the header cannot be keyed, out of the header's slot otherwise —
// from the stored walk while that stands, by walking (and storing) when it
// does not, then drawn against its lossy rules. Every packet the plane
// forwards comes through here.
func (f *Flow) walk(ttl int) (Result, walkOutcome) {
	pl := f.pl
	if !f.keyed {
		return pl.forward(f.from, Packet{Src: f.src, Dst: f.dst, TTL: ttl}), walkBypass
	}
	if f.e == nil || f.gen != pl.gen {
		f.e = pl.entry(walkKey{from: f.from, dst: v4(f.dst), src: v4(f.src)})
		f.gen = pl.gen // after entry, which may have advanced it
	}
	e := f.e
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	epoch := pl.rib.RIBVersion()
	if pl.current(e, f.dst, epoch) {
		if res, ok := e.full.atTTL(ttl); ok {
			pl.seq++
			e.draw(&res, ttl, pl.seq)
			f.seen = e.walks
			return res, walkHit
		}
	} else if e.stamps != nil {
		pl.obs.cacheStale.Inc()
	}
	e.losses = e.losses[:0]
	full := pl.walkFrom(f.from, Packet{Src: f.src, Dst: f.dst, TTL: max(ttl, DefaultTTL)}, &e.losses)
	full.Hops = pl.keep(full.Hops)
	e.full = full
	e.stamps = pl.stampRuns(e.stamps[:0], full.Hops)
	e.dstVer = pl.rib.DstVersion(f.dst)
	e.checked = epoch
	e.walks++
	e.live = true
	f.seen = e.walks
	res, _ := full.atTTL(ttl)
	e.draw(&res, ttl, pl.seq)
	return res, walkMiss
}
