// Package clean shows the blessed forms: both valley-free clauses present
// (as one conjoined condition or as switches), plus export-named helpers
// that are not relationship policy at all and therefore need no guards.
package clean

type Rel int

const (
	RelCustomer Rel = iota
	RelPeer
	RelProvider
)

type Path []uint32

type Route struct {
	Path Path
	Rel  Rel
}

// exportTo mirrors the engine's export policy: the conjoined condition
// carries both the neighbor-side and the route-side comparison.
func exportTo(b *Route, relToN Rel) (Path, bool) {
	if b == nil {
		return nil, false
	}
	if relToN != RelCustomer && b.Rel != RelCustomer {
		return nil, false
	}
	return b.Path, true
}

// exportSwitched spells both guards as switches.
func exportSwitched(b *Route, relToN Rel) (Path, bool) {
	switch relToN {
	case RelCustomer:
		return b.Path, true
	}
	switch b.Rel {
	case RelCustomer:
		return b.Path, true
	}
	return nil, false
}

// exported is pure path manipulation — no relationship state, so it is not
// export policy.
func exported(r *Route, self uint32) Path {
	out := make(Path, 0, len(r.Path)+1)
	out = append(out, self)
	out = append(out, r.Path...)
	return out
}

// blockExport consults the neighbor relationship for a per-relationship block; it
// never involves RelCustomer or a route's Rel field, so the valley-free
// rule is out of its scope.
func blockExport(relToNeighbor Rel) bool {
	return relToNeighbor == RelPeer || relToNeighbor == RelProvider
}

// usable compares one-sidedly but is not export-named; selection policy is
// not export policy.
func usable(b *Route) bool {
	return b.Rel == RelCustomer
}

// entry is a route in compact form (the engine's adjEntry): its rel field is
// the learned route's relationship as much as Route.Rel is.
type entry struct {
	rel  Rel
	path uint32
}

// mayExport is the engine's policy over a compact entry.
func mayExport(b *entry, relToN Rel) bool {
	return relToN == RelCustomer || b.rel == RelCustomer
}
