package bgp

import "lifeguard/internal/topo"

// Compact RIBs. Neither the adj-RIBs nor the loc-RIB holds a *Route: both
// are tables of pointer-free values the collector never scans.
//
// Both adj-RIBs live in one table of session slots per speaker
// (Speaker.rows), id-major: session i's slot for prefix id is at
// int(id)*len(out)+i, so a prefix's row holds, for every session, the offer
// accepted over it (the interned path handle and its length, 0 for none) and
// what it was last sent (advRecord). The neighbor, relationship and local
// preference of an offer are the session's, so they are not stored: the
// decision process rebuilds each adjEntry from the slot and the session's
// cached neighbor and relationship (Speaker.offer). An update finds its slot
// by index, with no search, insert or shift, and the export check after it
// reads the same row.
//
// The loc-RIB is a dense []locEntry indexed by prefix id: the winning
// adjEntry by value, the interned handle of the path it is exported with, and
// whether the slot is empty, learned or originated. The decision process
// overwrites a slot; it allocates nothing. A *Route — what the data plane
// and every public API consume — is built from the slot and the arena only
// for a caller that asks (Speaker.route), and remembered until the slot next
// changes; AdjIn likewise rebuilds full Routes only when asked.

// slot is one session's cell of a prefix's row: 12 bytes, no pointer.
type slot struct {
	in   pathID    // the offer accepted over the session; 0 means none
	adv  advRecord // what the session was last sent
	plen uint16    // len of in's path, the decision process's second comparator
}

// adjEntry is one neighbor's offered route for a prefix: the decision
// process's view of a filled slot, and the winner a loc-RIB slot keeps.
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
