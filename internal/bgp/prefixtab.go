package bgp

import (
	"math/bits"
	"net/netip"
	"slices"
	"sort"
)

// Prefix interning. Every per-speaker, per-prefix structure — the
// session-slot table (both adj-RIBs, one row of session slots per id), the
// loc-RIB, origin policies and the per-session pending sets — is a slice
// indexed by a dense prefix id, so the per-update path never hashes a
// 32-byte netip.Prefix. One table per engine maps prefix ↔ id and ranks the
// ids in (addr, bits) order.
//
// Ids depend on interning order and are used only as indices and for
// equality; whatever drives decisions or output is first ordered by rank,
// which is a function of the prefix *set* alone. A flush therefore visits
// its pending prefixes in exactly the order the map-keyed engine's sorted
// scan did, and every rng draw and output follows.
//
// Growth rule: the table grows only where a prefix is interned — at
// Announce, and where a test injects an update. Interning a prefix may
// renumber the ranks of existing ids but never their relative order.
// Speakers grow their own slices lazily to the table's size on first write
// past the end (the slot table by whole rows, so no existing index moves).

// prefixID is a handle into the engine's prefix table. 0 means "not
// interned"; slot 0 of every id-indexed slice stays empty.
type prefixID uint32

// prefixTable is the engine-wide intern table for prefixes.
type prefixTable struct {
	ids   map[netip.Prefix]prefixID
	pfx   []netip.Prefix // pfx[id]
	rank  []uint32       // rank[id] is id's position in order
	order []prefixID     // every id, sorted by (addr, bits)
	// fwd[id] counts the loc-RIB changes for id, at any speaker, that
	// changed how that speaker forwards; cover is the engine's one LPM trie,
	// over every interned prefix, routed or not. Engine.DstVersion sums the
	// first along the second; Engine.Lookup reads the second through one
	// speaker's loc-RIB.
	fwd   []uint64
	cover lpmIndex
}

func newPrefixTable() *prefixTable {
	return &prefixTable{
		ids:  make(map[netip.Prefix]prefixID),
		pfx:  make([]netip.Prefix, 1),
		rank: make([]uint32, 1),
		fwd:  make([]uint64, 1),
	}
}

// prefixLess orders prefixes by address, then length.
func prefixLess(a, b netip.Prefix) bool {
	if a.Addr() != b.Addr() {
		return a.Addr().Less(b.Addr())
	}
	return a.Bits() < b.Bits()
}

// size is one past the highest id: the length an id-indexed slice needs to
// hold every interned prefix.
func (t *prefixTable) size() int { return len(t.pfx) }

// lookup returns p's id without interning it.
func (t *prefixTable) lookup(p netip.Prefix) (prefixID, bool) {
	id, ok := t.ids[p]
	return id, ok
}

// intern returns p's id, assigning the next one on first sight.
func (t *prefixTable) intern(p netip.Prefix) prefixID {
	if id, ok := t.ids[p]; ok {
		return id
	}
	id := prefixID(len(t.pfx))
	t.ids[p] = id
	t.pfx = append(t.pfx, p)
	t.rank = append(t.rank, 0)
	t.fwd = append(t.fwd, 0)
	t.cover.insert(p, id)
	at := sort.Search(len(t.order), func(i int) bool { return prefixLess(p, t.pfx[t.order[i]]) })
	t.order = slices.Insert(t.order, at, id)
	for i := at; i < len(t.order); i++ {
		t.rank[t.order[i]] = uint32(i)
	}
	return id
}

// growTo extends an id-indexed slice with zero values to length n, the
// prefix table's size at the time of the write that found it too short.
func growTo[T any](s []T, n int) []T {
	return append(s, make([]T, n-len(s))...)
}

// sortByRank orders ids by prefix. Every id list that drives decisions or
// output passes through here (or is read off order directly), so neither
// interning order nor insertion order ever leaks into a run.
func (t *prefixTable) sortByRank(ids []prefixID) {
	rank := t.rank
	slices.SortFunc(ids, func(a, b prefixID) int { return int(rank[a]) - int(rank[b]) })
}

// idSet is a set of prefix ids: a bitset plus its count. It backs the
// per-session pending set, which flush reads back in rank order (drain), so
// the order ids were added in never shows.
type idSet struct {
	mark []uint64
	n    int
}

// add inserts id; size is the prefix table's size, which the bitset grows to
// when id lies past its end.
func (s *idSet) add(id prefixID, size int) {
	w := int(id >> 6)
	if w >= len(s.mark) {
		s.mark = growTo(s.mark, (size+63)>>6)
	}
	bit := uint64(1) << (id & 63)
	if s.mark[w]&bit == 0 {
		s.mark[w] |= bit
		s.n++
	}
}

// drain appends the set's ids to buf in id order, empties the set and
// returns buf.
func (s *idSet) drain(buf []prefixID) []prefixID {
	for w := 0; s.n > 0; w++ {
		for m := s.mark[w]; m != 0; m &= m - 1 {
			buf = append(buf, prefixID(w<<6|bits.TrailingZeros64(m)))
			s.n--
		}
		s.mark[w] = 0
	}
	return buf
}

// reset empties the set.
func (s *idSet) reset() {
	clear(s.mark)
	s.n = 0
}
