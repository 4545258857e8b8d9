// Package hijack is the owner-side BGP hijack pipeline, after ARTEMIS
// (Sermpezis et al., ToN 2018), grafted onto LIFEGUARD's machinery: the
// Detector consumes public route-collector streams and classifies routes
// that contradict a prefix-ownership table; the Responder counter-announces
// — de-aggregating an exactly-hijacked prefix into more-specific halves, or
// re-claiming a hijacked more-specific with the rogue AS poisoned — and
// verifies recovery with sentinel-style data-plane checks. Both halves run
// on the simulation clock, so detection and mitigation latencies are exact
// virtual-time measurements.
package hijack

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"lifeguard/internal/bgp"
	"lifeguard/internal/topo"
)

// Class is the attack taxonomy the detector distinguishes.
type Class int

// Hijack classes, in ARTEMIS terms.
const (
	// ExactPrefix: the rogue originates a prefix in the ownership table
	// under its own ASN — the classic origin (type-0) hijack.
	ExactPrefix Class = iota
	// SubPrefix: the rogue originates a more-specific of owned space,
	// capturing traffic by longest-prefix match regardless of path length.
	SubPrefix
	// ForgedOrigin: the announced path ends at the legitimate origin, but
	// the AS claiming adjacency to it has no such link — a type-1 attack
	// that defeats origin validation and is caught only by path inspection.
	ForgedOrigin
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ExactPrefix:
		return "exact-prefix"
	case SubPrefix:
		return "sub-prefix"
	case ForgedOrigin:
		return "forged-origin"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Alarm is one detected hijack, identified by (class, rogue, prefix): the
// same rogue attacking the same prefix two different ways raises two alarms.
type Alarm struct {
	Class  Class
	Prefix netip.Prefix
	// Owner is the legitimate origin from the ownership table (the covering
	// owner for a sub-prefix attack).
	Owner topo.ASN
	// Rogue is the offending AS: the false origin, or for ForgedOrigin the
	// AS fabricating the adjacency.
	Rogue topo.ASN
	// DetectedAt is the scan instant that raised the alarm; Latency is how
	// long the offending route had been visible in collector streams by
	// then — the paper's detection-delay metric.
	DetectedAt time.Duration
	Latency    time.Duration
	// Peers lists the collector peers whose current route offends, updated
	// each scan while the alarm is active.
	Peers []topo.ASN
	// ClearedAt is when no peer offended any more (zero while active).
	ClearedAt time.Duration
}

// String renders the alarm deterministically.
func (a *Alarm) String() string {
	return fmt.Sprintf("%v of %v by AS%d (owner AS%d)", a.Class, a.Prefix, a.Rogue, a.Owner)
}

// alarmKey dedups alarms across scans.
type alarmKey struct {
	class  Class
	rogue  topo.ASN
	prefix netip.Prefix
}

func keyLess(a, b alarmKey) bool {
	if a.prefix.Addr() != b.prefix.Addr() {
		return a.prefix.Addr().Less(b.prefix.Addr())
	}
	if a.prefix.Bits() != b.prefix.Bits() {
		return a.prefix.Bits() < b.prefix.Bits()
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.rogue < b.rogue
}

// Table is the prefix-ownership ground truth the detector checks routes
// against — the role ARTEMIS gives the operator's own prefix list. Lookups
// resolve exact matches first, then the longest covering entry, so owned
// space extends to un-listed more-specifics (where hijacks appear) while
// unrelated prefixes stay out of scope.
type Table struct {
	owners map[netip.Prefix]topo.ASN
	// order holds the prefixes most-specific-first for covering lookups.
	order []netip.Prefix
}

// NewTable returns an empty ownership table.
func NewTable() *Table {
	return &Table{owners: make(map[netip.Prefix]topo.ASN)}
}

// Add records owner as the legitimate origin of prefix.
func (t *Table) Add(prefix netip.Prefix, owner topo.ASN) {
	prefix = prefix.Masked()
	if _, dup := t.owners[prefix]; !dup {
		t.order = append(t.order, prefix)
		sort.Slice(t.order, func(i, j int) bool {
			if t.order[i].Bits() != t.order[j].Bits() {
				return t.order[i].Bits() > t.order[j].Bits()
			}
			return t.order[i].Addr().Less(t.order[j].Addr())
		})
	}
	t.owners[prefix] = owner
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.owners) }

// Owner resolves the legitimate origin for prefix: exact reports whether the
// prefix itself is listed, and ok is false when no entry covers it at all.
func (t *Table) Owner(prefix netip.Prefix) (owner topo.ASN, exact, ok bool) {
	prefix = prefix.Masked()
	if o, hit := t.owners[prefix]; hit {
		return o, true, true
	}
	for _, p := range t.order {
		if p.Bits() < prefix.Bits() && p.Contains(prefix.Addr()) {
			return t.owners[p], false, true
		}
	}
	return 0, false, false
}

// TableFromEngine snapshots the engine's current origin announcements into
// an ownership table — one entry per (prefix, origin) pair, with prefixes
// announced by more than one AS excluded as ambiguous. Snapshot *before*
// any attack is injected: a hijack already installed would be recorded as
// legitimate ownership.
func TableFromEngine(e *bgp.Engine) *Table {
	t := NewTable()
	seen := make(map[netip.Prefix]topo.ASN)
	ambiguous := make(map[netip.Prefix]bool)
	for _, asn := range e.Topology().ASNs() {
		for _, o := range e.Origins(asn) {
			p := o.Prefix.Masked()
			if prev, dup := seen[p]; dup && prev != asn {
				ambiguous[p] = true
				continue
			}
			seen[p] = asn
		}
	}
	for p, asn := range seen {
		if !ambiguous[p] {
			t.Add(p, asn)
		}
	}
	return t
}
