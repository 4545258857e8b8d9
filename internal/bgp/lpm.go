package bgp

import "net/netip"

// Compiled longest-prefix-match index. Every simulated probe is forwarded
// hop-by-hop, and every hop does one LPM lookup in the transit AS's loc-RIB,
// so this is the hottest read path in the repository. The index is a binary
// trie keyed on the 32-bit big-endian IPv4 address: a node at depth d
// corresponds to a /d prefix, and a prefix with a selected route hangs its
// id at its node. Lookup walks at most 32 child pointers and remembers the
// deepest id passed — no netip.Prefix construction, no map probes, no
// allocations — and the route is the loc-RIB's entry for that id.
//
// The trie is maintained incrementally by Speaker.decide: a prefix gaining
// its first route goes through insert and one losing its last through
// remove. Because a leaf names the prefix, not the route, a *replaced* best
// — almost every loc-RIB change in a poison cycle — does not touch the trie
// at all. The index is always exactly the loc-RIB's prefix set (invariant
// checked against a brute-force match over KnownPrefixes in
// lpm_quick_test.go). Structure and contents are a pure function of the
// loc-RIB — no ordering, randomness, or wall-clock input — so determinism
// of a run is unaffected.
//
// Unlike the map-probe loop it replaces (which scanned /32../8 only), the
// trie matches the full /0../32 range: default routes and other sub-/8
// aggregates are routable.

// lpmNode is one trie node. id is non-zero when a prefix with a selected
// route terminates here.
type lpmNode struct {
	child [2]*lpmNode
	id    prefixID
}

// lpmIndex is one speaker's index over its loc-RIB (or, in the prefix
// table, the engine's over every interned prefix). The zero value is an
// empty index ready for use.
type lpmIndex struct {
	root  lpmNode
	len   int // number of prefixes in the index
	nodes int // live trie nodes below the root (the size gauge reads this)

	// Nodes are carved from slabs and recycled through a free list, so
	// installing a /24 costs well under one heap allocation on average and
	// steady-state announce/withdraw churn costs none.
	slab []lpmNode
	free []*lpmNode
}

// lpmSlabSize is the node-slab granularity: one slab covers a fresh /24
// insert (at most 32 new nodes), and a speaker with a handful of routes
// wastes at most a few hundred bytes.
const lpmSlabSize = 32

func (x *lpmIndex) newNode() *lpmNode {
	x.nodes++
	if n := len(x.free); n > 0 {
		nd := x.free[n-1]
		x.free = x.free[:n-1]
		*nd = lpmNode{}
		return nd
	}
	if len(x.slab) == 0 {
		x.slab = make([]lpmNode, lpmSlabSize)
	}
	nd := &x.slab[0]
	x.slab = x.slab[1:]
	return nd
}

// v4Key flattens an IPv4 (or 4-in-6 mapped) address to its 32-bit key;
// ok=false for other address families, which the IPv4-only address plan
// never routes.
func v4Key(a netip.Addr) (uint32, bool) {
	a = a.Unmap()
	if !a.Is4() {
		return 0, false
	}
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), true
}

// insert hangs p's id at p. Prefixes are masked at the Announce boundary,
// so only the top p.Bits() bits of the address are significant.
func (x *lpmIndex) insert(p netip.Prefix, id prefixID) {
	key, ok := v4Key(p.Addr())
	if !ok {
		return
	}
	n := &x.root
	for depth := 0; depth < p.Bits(); depth++ {
		b := (key >> (31 - depth)) & 1
		if n.child[b] == nil {
			n.child[b] = x.newNode()
		}
		n = n.child[b]
	}
	if n.id == 0 {
		x.len++
	}
	n.id = id
}

// remove deletes p, if present, and prunes the now-empty tail of
// its path back onto the free list, so announce/withdraw churn cannot grow
// the trie without bound.
func (x *lpmIndex) remove(p netip.Prefix) {
	key, ok := v4Key(p.Addr())
	if !ok {
		return
	}
	bits := p.Bits()
	var path [32]*lpmNode // path[d] is the node at depth d on the way down
	n := &x.root
	for depth := 0; depth < bits; depth++ {
		path[depth] = n
		n = n.child[(key>>(31-depth))&1]
		if n == nil {
			return
		}
	}
	if n.id == 0 {
		return
	}
	n.id = 0
	x.len--
	for depth := bits - 1; depth >= 0; depth-- {
		if n.id != 0 || n.child[0] != nil || n.child[1] != nil {
			break
		}
		parent := path[depth]
		parent.child[(key>>(31-depth))&1] = nil
		x.free = append(x.free, n)
		x.nodes--
		n = parent
	}
}

// lookup returns the id of the longest indexed prefix covering key, or 0 if
// none (not even a default route) does.
func (x *lpmIndex) lookup(key uint32) prefixID {
	n := &x.root
	best := n.id // a /0 default route lives at the root
	for depth := 0; depth < 32; depth++ {
		n = n.child[(key>>(31-depth))&1]
		if n == nil {
			break
		}
		if n.id != 0 {
			best = n.id
		}
	}
	return best
}

// sumCovering adds up v[id] over every indexed prefix covering key, a /0 at
// the root included: one walk down, collecting every id it passes.
func (x *lpmIndex) sumCovering(key uint32, v []uint64) uint64 {
	n := &x.root
	sum := v[n.id] // slot 0 of an id-indexed slice is empty
	for depth := 0; depth < 32; depth++ {
		n = n.child[(key>>(31-depth))&1]
		if n == nil {
			break
		}
		sum += v[n.id]
	}
	return sum
}
