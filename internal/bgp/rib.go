package bgp

import (
	"sort"

	"lifeguard/internal/topo"
)

// Compact RIBs. Neither the adj-RIB-in nor the loc-RIB holds a *Route: both
// are tables of pointer-free values the collector never scans.
//
// The adj-RIB-in is delta-encoded: per (prefix, neighbor) only the
// selection-relevant scalars and the interned path handle are stored (16
// bytes), sorted by neighbor in a short array per prefix, and the arrays
// themselves are carved from per-speaker slab chunks (adjSlab) instead of
// being one tiny heap object each.
//
// The loc-RIB is a dense []locEntry indexed by prefix id: the winning
// adjEntry by value, the interned handle of the path it is exported with, and
// whether the slot is empty, learned or originated. The decision process
// overwrites a slot; it allocates nothing. A *Route — what the data plane
// and every public API consume — is built from the slot and the arena only
// for a caller that asks (Speaker.route), and remembered until the slot next
// changes; AdjIn likewise rebuilds full Routes only when asked.

// adjEntry is one neighbor's offered route for a prefix.
type adjEntry struct {
	nbr   topo.ASN
	rel   topo.Rel
	plen  uint16 // AS-path length, the decision process's second comparator
	lpref int32
	path  pathID
}

// locKind says what a loc-RIB slot holds.
type locKind uint8

const (
	locNone       locKind = iota // no route selected; the rest of the slot is zero
	locLearned                   // ent is the winning adj-RIB-in entry
	locOriginated                // the speaker originates the prefix
)

// locEntry is one loc-RIB slot. For an originated route ent carries what the
// public Route reports — nbr is the speaker itself, lpref prefOriginated —
// and path stays 0 (the empty path).
type locEntry struct {
	ent adjEntry
	// exp is the interned handle of ent.path prepended with the speaker's
	// ASN, the path every neighbor is sent; 0 until the first export asks
	// (exportTo), and again whenever the slot changes. Learned slots only.
	exp  pathID
	kind locKind
}

// sameRoute reports whether two slots hold the same selected route: the kind,
// the neighbor and the path handle that identify one. Paths are interned, so
// equal handles are equal contents.
func (a *locEntry) sameRoute(b *locEntry) bool {
	return a.kind == b.kind && a.ent.nbr == b.ent.nbr && a.ent.path == b.ent.path
}

// sameForwarding reports whether a packet meeting slot a fares as one meeting
// b: the data plane reads of a route only that it exists and where it sends
// the packet next — nowhere for an originated route (deliver here), the
// neighbor it was learned from for any other (import accepts a path only if
// it starts with its sender).
func (a *locEntry) sameForwarding(b *locEntry) bool {
	return a.kind == b.kind && a.ent.nbr == b.ent.nbr
}

// prefixRIB holds a prefix's offers, sorted by neighbor ASN.
type prefixRIB struct {
	entries []adjEntry
}

// scanBelow is the length under which searchNbr scans: the arrays hold 1.6
// entries on average, where a loop beats sort.Search's closure call per
// probe (3–4 % of a fill).
const scanBelow = 8

// searchNbr returns the index of the first entry whose neighbor is >= nbr
// (len(entries) when there is none), as sort.Search does.
func searchNbr(entries []adjEntry, nbr topo.ASN) int {
	if len(entries) >= scanBelow {
		return sort.Search(len(entries), func(i int) bool { return entries[i].nbr >= nbr })
	}
	for i := range entries {
		if entries[i].nbr >= nbr {
			return i
		}
	}
	return len(entries)
}

// find returns the index of nbr's entry, or -1.
func (rb *prefixRIB) find(nbr topo.ASN) int {
	i := searchNbr(rb.entries, nbr)
	if i < len(rb.entries) && rb.entries[i].nbr == nbr {
		return i
	}
	return -1
}

// insert adds a new entry, keeping neighbor order. The caller has already
// established no entry for ent.nbr exists. A full array moves to a larger
// one carved from slab (see adjSlab.grow); the old one is left behind in its
// chunk.
func (rb *prefixRIB) insert(ent adjEntry, slab *adjSlab) {
	i := searchNbr(rb.entries, ent.nbr)
	if len(rb.entries) == cap(rb.entries) {
		rb.entries = slab.grow(rb.entries)
	}
	rb.entries = append(rb.entries, adjEntry{})
	copy(rb.entries[i+1:], rb.entries[i:])
	rb.entries[i] = ent
}

// remove drops the entry at index i; the array keeps its capacity.
func (rb *prefixRIB) remove(i int) {
	rb.entries = append(rb.entries[:i], rb.entries[i+1:]...)
}

// slabChunk is how many entries an adjSlab allocates at a time. A stub's
// last chunk is half empty on average, so the chunk is sized to keep that
// waste (768 bytes a speaker) out of sight of the resident set.
const slabChunk = 64

// adjSlab carves adj-RIB-in entry arrays for one speaker out of shared
// chunks: one heap object per slabChunk entries instead of one or two per
// (speaker, prefix). Arrays are never returned; a prefixRIB keeps the one it
// has (remove keeps capacity) and abandons it only to grow.
type adjSlab struct {
	free []adjEntry // the unused tail of the current chunk
	// first is the capacity a prefix's first array gets, most the capacity
	// none needs to exceed: the speaker's provider count (a provider offers
	// its customers a route for every prefix it can reach, so that many
	// offers is what a stub ends up with and the least a transit AS does)
	// and its neighbor count.
	first, most int
}

// grow returns an array holding entries with room for more: first entries
// for a prefix's first array, twice the capacity after that, never more than
// most.
func (sl *adjSlab) grow(entries []adjEntry) []adjEntry {
	n := sl.first
	if c := cap(entries); c > 0 {
		n = min(2*c, sl.most)
	}
	return append(sl.carve(n), entries...)
}

// carve returns an empty array of capacity n. The three-index slice caps it
// at n, so an append past its end reallocates instead of running into the
// next array in the chunk.
func (sl *adjSlab) carve(n int) []adjEntry {
	if n > slabChunk/2 {
		return make([]adjEntry, 0, n)
	}
	if len(sl.free) < n {
		sl.free = make([]adjEntry, slabChunk)
	}
	out := sl.free[:0:n]
	sl.free = sl.free[n:]
	return out
}

// entryBetter is the BGP decision process over compact entries, strict
// Gao–Rexford: higher relationship local-pref, then shorter AS path, then
// lowest neighbor ASN as the deterministic tiebreak.
func entryBetter(a, b *adjEntry) bool {
	if a.lpref != b.lpref {
		return a.lpref > b.lpref
	}
	if a.plen != b.plen {
		return a.plen < b.plen
	}
	return a.nbr < b.nbr
}
