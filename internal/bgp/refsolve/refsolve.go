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

// Local preference of an originated route and by the relationship a route
// was learned over.
const (
	prefOriginated = 1000
	prefCustomer   = 300
	prefPeer       = 200
	prefProvider   = 100
)

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
	return &Route{From: asn, LocalPref: prefOriginated, Originated: true}
}

// Offer is the adj-RIB-in entry that from leaves at its neighbor to once
// nothing is in flight, where from originates the prefix by o, or, if o is
// nil, selected best (nil: no route). It is nil when the session is down in
// down, from sends nothing, or to keeps nothing.
func Offer(top *topo.Topology, down map[topo.ASPair]bool, from, to topo.ASN, o *Origin, best *Route) *Route {
	out := &Route{From: from, Rel: top.Rel(to, from)}
	switch {
	case down[topo.MakeASPair(from, to)], o != nil && o.Withhold[to]:
		return nil
	case o != nil:
		out.Path = topo.Path{from}
		if per, ok := o.PerNeighbor[to]; ok {
			out.Path = per
		} else if o.Pattern != nil {
			out.Path = o.Pattern
		}
	case best == nil || best.From == to: // nothing to send; split horizon
		return nil
	case top.Rel(from, to) != topo.RelCustomer && best.Rel != topo.RelCustomer:
		return nil // valley-free: peer and provider routes go to customers only
	default:
		out.Path = best.Path.Prepend(from)
	}
	// Import at the receiver: loop prevention and the §7.1 filter.
	as := top.AS(to)
	if as.MaxOwnASOccurs > 0 && out.Path.Count(to) >= as.MaxOwnASOccurs {
		return nil
	}
	if as.FilterPeersFromCustomers && out.Rel == topo.RelCustomer {
		for _, hop := range out.Path {
			if top.Rel(to, hop) == topo.RelPeer {
				return nil
			}
		}
	}
	out.LocalPref = [...]int{topo.RelCustomer: prefCustomer, topo.RelPeer: prefPeer, topo.RelProvider: prefProvider}[out.Rel]
	return out
}

// Winner is the offer the decision order ranks first — higher local-pref,
// shorter AS path, lower neighbor ASN — skipping nils; nil if there is none.
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

// Decide is the route asn selects when its neighbors hold best (an AS
// missing from best has no route) and origins says who originates the
// prefix and how.
func Decide(top *topo.Topology, down map[topo.ASPair]bool, origins map[topo.ASN]Origin, asn topo.ASN, best map[topo.ASN]*Route) *Route {
	if _, ok := origins[asn]; ok {
		return Originated(asn)
	}
	var offers []*Route
	for _, rel := range [][]topo.ASN{top.Customers(asn), top.Peers(asn), top.Providers(asn)} {
		for _, nb := range rel {
			if o, ok := origins[nb]; ok {
				offers = append(offers, Offer(top, down, nb, asn, &o, nil))
			} else {
				offers = append(offers, Offer(top, down, nb, asn, nil, best[nb]))
			}
		}
	}
	return Winner(offers)
}

// Solve returns the route every AS selects for one prefix once nothing is in
// flight, given the sessions down and who originates the prefix and how; an
// AS without a route is absent. It is Decide run once per AS from the bottom
// of the provider hierarchy up, then once more from the top down. An AS's
// customer route depends only on its customers' customer routes, and
// customer routes are all it exports to providers and peers, so the first
// sweep settles every customer route. Its peer route then depends only on
// its peers' customer routes and its provider route on its providers' final
// routes, so the second sweep settles the rest.
func Solve(top *topo.Topology, down map[topo.ASPair]bool, origins map[topo.ASN]Origin) map[topo.ASN]*Route {
	best := make(map[topo.ASN]*Route, top.NumASes())
	decide := func(asn topo.ASN) {
		if r := Decide(top, down, origins, asn, best); r != nil {
			best[asn] = r
		}
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
