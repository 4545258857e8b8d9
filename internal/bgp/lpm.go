package bgp

import "net/netip"

// Longest-prefix-match index. Every simulated probe is forwarded hop-by-hop,
// and every hop does one LPM lookup in the transit AS's loc-RIB, so this is
// the hottest read path in the repository. The index is a binary trie keyed
// on the 32-bit big-endian IPv4 address: a node at depth d corresponds to a
// /d prefix (the full /0../32 range, default routes included), and an
// interned prefix hangs its id at its node. A walk follows at most 32 child
// pointers — no netip.Prefix construction, no map probes, no allocations.
//
// There is one trie per engine, prefixTable.cover, over every interned
// prefix, routed or not: the set of prefixes an Internet routes barely moves
// through an outage, and what differs from AS to AS is only which of them it
// holds a route for. The trie knows the shape; a speaker's loc-RIB slots say
// which ids count there. It is read two ways: Engine.Lookup keeps the deepest
// id on the way down whose slot at the asking speaker is occupied (longest),
// Engine.DstVersion adds a counter over every id passed (sumCovering). It is
// written in one place, prefixTable.intern; decide never touches it, and
// because the table never un-interns a prefix there is no removal. Its shape
// is a function of the prefix set alone, so determinism of a run is
// unaffected, and nothing is built on first use: "cold" in BenchmarkLookupLPM
// and the repository benchmark's lookup_cold_us means only that the nodes
// and slots walked are not in the host's cache. Lookup is held to a
// brute-force match over each loc-RIB in lpm_quick_test.go.

// lpmNode is one trie node. id is non-zero when an interned prefix
// terminates here.
type lpmNode struct {
	child [2]*lpmNode
	id    prefixID
}

// lpmIndex is the trie. The zero value is an empty index ready for use.
type lpmIndex struct {
	root  lpmNode
	nodes int // trie nodes below the root (the size gauge reads this)

	// Nodes are carved from slabs, so indexing a /24 costs well under one
	// heap allocation on average.
	slab []lpmNode
}

// lpmSlabSize is the node-slab granularity: one slab covers a fresh /24
// insert (at most 32 new nodes).
const lpmSlabSize = 32

func (x *lpmIndex) newNode() *lpmNode {
	x.nodes++
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
	n.id = id
}

// longest returns the deepest indexed id covering key whose slot in best —
// one speaker's loc-RIB, which may be shorter than the prefix table — is
// occupied, or 0 if none (not even a /0 at the root) is.
func (x *lpmIndex) longest(key uint32, best []locEntry) prefixID {
	n := &x.root
	var win prefixID
	for depth := 0; ; depth++ {
		if id := n.id; id != 0 && int(id) < len(best) && best[id].kind != locNone {
			win = id
		}
		if depth == 32 {
			return win
		}
		n = n.child[(key>>(31-depth))&1]
		if n == nil {
			return win
		}
	}
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
