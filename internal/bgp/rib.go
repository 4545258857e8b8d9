package bgp

import (
	"sort"

	"lifeguard/internal/topo"
)

// Compact adj-RIB-in. The previous representation — map[prefix]map[ASN]*Route
// with a materialized topo.Path per entry — costs two map headers plus a
// Route and path slice per (prefix, neighbor), which dominates memory on
// full tables at 10k ASes. Entries are instead delta-encoded against the
// loc-RIB: only the selection-relevant scalars and the interned path /
// community handles are stored (16 bytes each), sorted by neighbor in a
// flat slice per prefix. The winning route alone is materialized as a
// *Route (the LPM trie and every public API hand out *Route), and AdjIn
// rebuilds full Routes from the arena only when asked.

// adjEntry is one neighbor's offered route for a prefix.
type adjEntry struct {
	nbr   topo.ASN
	rel   topo.Rel
	plen  uint16 // AS-path length, the decision process's second comparator
	lpref int32
	med   int32
	path  pathID
	comms commID
}

// prefixRIB holds a prefix's offers, sorted by neighbor ASN.
type prefixRIB struct {
	entries []adjEntry
}

// find returns the index of nbr's entry, or -1.
func (rb *prefixRIB) find(nbr topo.ASN) int {
	i := sort.Search(len(rb.entries), func(i int) bool { return rb.entries[i].nbr >= nbr })
	if i < len(rb.entries) && rb.entries[i].nbr == nbr {
		return i
	}
	return -1
}

// insert adds a new entry, keeping neighbor order. The caller has already
// established no entry for ent.nbr exists.
func (rb *prefixRIB) insert(ent adjEntry) {
	i := sort.Search(len(rb.entries), func(i int) bool { return rb.entries[i].nbr >= ent.nbr })
	rb.entries = append(rb.entries, adjEntry{})
	copy(rb.entries[i+1:], rb.entries[i:])
	rb.entries[i] = ent
}

// remove drops the entry at index i.
func (rb *prefixRIB) remove(i int) {
	rb.entries = append(rb.entries[:i], rb.entries[i+1:]...)
}

// entryBetter is the BGP decision process over compact entries: higher
// local-pref, then shorter AS path, then lower MED, then lowest neighbor ASN
// as the deterministic tiebreak.
func entryBetter(a, b *adjEntry) bool {
	if a.lpref != b.lpref {
		return a.lpref > b.lpref
	}
	if a.plen != b.plen {
		return a.plen < b.plen
	}
	if a.med != b.med {
		return a.med < b.med
	}
	return a.nbr < b.nbr
}
