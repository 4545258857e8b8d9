// Package refsolve is the control plane's reference solver: the policy the
// bgp package documents, written once more with no interning, slabs, MRAI
// or clock, and solved one prefix at a time. Offer is export and import over
// one session (origin config, split horizon, valley-free export, loop
// prevention, FilterPeersFromCustomers), Winner the decision order, Decide
// one AS's choice, Solve the stable state.
//
// The ranking is strict (one offer per neighbor, ties broken by neighbor
// ASN), export is valley-free and topo.Builder.Build rejects a
// customer→provider cycle, so the Gao–Rexford conditions hold and routing
// has exactly one stable state (Gao & Rexford 2001; Griffin, Shepherd &
// Wilfong, "The Stable Paths Problem", 2002): an engine that has converged
// holds Solve's route at every AS, in whatever order its messages arrived.
// An engine run with bgp.Config.Dampening is outside that argument: its
// decision skips a suppressed route until the penalty decays, so what an AS
// holds depends on how its routes flapped, not on the policy alone.
//
// The package imports topo and never bgp, so nothing the engine gets wrong
// can reach the reference.
package refsolve

import "lifeguard/internal/topo"

// localPref is a route's local preference by the relationship it was
// learned over, RelNone for an originated route.
var localPref = [...]int{topo.RelNone: 1000, topo.RelCustomer: 300, topo.RelPeer: 200, topo.RelProvider: 100}

// Route is one adj-RIB-in offer or selected route: bgp.Route's fields but
// the prefix.
type Route struct {
	Path       topo.Path // as received, sender first, origin last; nil if originated
	From       topo.ASN  // the sender; the AS itself if originated
	Rel        topo.Rel  // From as the holder sees it; RelNone if originated
	LocalPref  int
	Originated bool
}

// Equal reports whether r and o are the same route; nil is no route.
func (r *Route) Equal(o *Route) bool {
	if r == nil || o == nil {
		return r == o
	}
	return r.Path.Equal(o.Path) && r.From == o.From && r.Rel == o.Rel &&
		r.LocalPref == o.LocalPref && r.Originated == o.Originated
}

// Origin is how an AS announces the prefix: bgp.OriginConfig field for
// field, so one converts to the other.
type Origin struct {
	Pattern     topo.Path
	PerNeighbor map[topo.ASN]topo.Path
	Withhold    map[topo.ASN]bool
}

// Originated is the route an AS selects for a prefix it originates.
func Originated(asn topo.ASN) *Route {
	return &Route{From: asn, LocalPref: localPref[topo.RelNone], Originated: true}
}

// Offer is the adj-RIB-in entry that from leaves at its neighbor to once
// nothing is in flight: its announcement if origins has from, else its
// selected best (nil: no route), with the path appended to buf. It is the
// zero Route, no route, when the session is down in down, from sends
// nothing, or to keeps nothing.
func Offer(top *topo.Topology, down map[topo.ASPair]bool, origins map[topo.ASN]Origin, from, to topo.ASN, best *Route, buf topo.Path) Route {
	o, originates := origins[from]
	switch per, ok := o.PerNeighbor[to]; {
	case down[topo.MakeASPair(from, to)], o.Withhold[to]:
		return Route{}
	case ok:
		buf = append(buf, per...)
	case originates && o.Pattern != nil:
		buf = append(buf, o.Pattern...)
	case originates:
		buf = append(buf, from)
	case best == nil || best.From == to: // nothing to send; split horizon
		return Route{}
	case top.Rel(from, to) != topo.RelCustomer && best.Rel != topo.RelCustomer:
		return Route{} // valley-free: peer and provider routes go to customers only
	default:
		buf = append(append(buf, from), best.Path...)
	}
	// Import at the receiver: loop prevention and the §7.1 filter.
	out := Route{Path: buf, From: from, Rel: top.Rel(to, from)}
	as := top.AS(to)
	if as.MaxOwnASOccurs > 0 && out.Path.Count(to) >= as.MaxOwnASOccurs {
		return Route{}
	}
	if as.FilterPeersFromCustomers && out.Rel == topo.RelCustomer {
		for _, hop := range out.Path {
			if top.Rel(to, hop) == topo.RelPeer {
				return Route{}
			}
		}
	}
	out.LocalPref = localPref[out.Rel]
	return out
}

// Winner is the offer the decision order ranks first — higher local-pref,
// shorter AS path, lower neighbor ASN — skipping nils; nil if there is none.
// The zero Route ranks below every offer.
func Winner(offers []*Route) *Route {
	var win *Route
	for _, r := range offers {
		if r != nil && (win == nil || r.LocalPref > win.LocalPref || r.LocalPref == win.LocalPref &&
			(len(r.Path) < len(win.Path) || len(r.Path) == len(win.Path) && r.From < win.From)) {
			win = r
		}
	}
	return win
}

// Decide is the route asn selects when its neighbors hold best, by Index (a
// nil entry is no route), and origins says who originates the prefix and
// how. It ranks each offer as it is built, in the buffer the winner so far
// does not hold, and copies out the winner's path alone.
func Decide(top *topo.Topology, down map[topo.ASPair]bool, origins map[topo.ASN]Origin, asn topo.ASN, best []*Route) *Route {
	if _, ok := origins[asn]; ok {
		return Originated(asn)
	}
	var bufs [2][32]topo.ASN
	var win, r Route
	w := 0 // the buffer win's path is in
	for _, nb := range top.Neighbors(asn) {
		i, _ := top.Index(nb)
		if r = Offer(top, down, origins, nb, asn, best[i], bufs[1-w][:0]); Winner([]*Route{&win, &r}) == &r {
			win, w = r, 1-w
		}
	}
	if win.LocalPref == 0 {
		return nil
	}
	return &Route{Path: win.Path.Clone(), From: win.From, Rel: win.Rel, LocalPref: win.LocalPref}
}

// Solve returns the route every AS selects for one prefix once nothing is in
// flight, by Index (nil: no route), given the sessions down and who
// originates the prefix and how. It is Decide run once per AS from the bottom
// of the provider hierarchy up, then once more from the top down. An AS's
// customer route depends only on its customers' customer routes, and
// customer routes are all it exports to providers and peers, so the first
// sweep settles every customer route. Its peer route then depends only on
// its peers' customer routes and its provider route on its providers' final
// routes, so the second sweep settles the rest.
func Solve(top *topo.Topology, down map[topo.ASPair]bool, origins map[topo.ASN]Origin) []*Route {
	best := make([]*Route, top.NumASes())
	decide := func(asn topo.ASN) {
		i, _ := top.Index(asn)
		best[i] = Decide(top, down, origins, asn, best)
	}
	order := top.Hierarchy()
	for i := len(order) - 1; i >= 0; i-- {
		decide(order[i])
	}
	for _, asn := range order {
		decide(asn)
	}
	return best
}
