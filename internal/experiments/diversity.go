package experiments

import (
	"lifeguard"
	"lifeguard/internal/bgp"
	"lifeguard/internal/metrics"
	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// forwardDiversity regenerates the §2.3 forward-path study: an origin with
// five providers (the university BGP-Mux sites) inspects the BGP paths each
// provider offers to ~114 destination ASes. If the last AS link before a
// destination on the preferred route failed silently, could the origin
// avoid it by egressing via a different provider? The paper: yes in 90% of
// cases.
func forwardDiversity(seed int64, reg *obs.Registry) *Result {
	r := newResult("sec2.3", "forward-path provider diversity")
	n, rng := world(seed, topogen.Config{NumTransit: 35, NumStub: 120}, 5, bgp.Config{}, reg)
	origin := n.Gen.Origin
	muxes := n.Top.Providers(origin)

	// Target ASes mirror the paper's 114 feed ASes: networks that peer
	// with route collectors are well-connected, so restrict to transit
	// ASes and multihomed stubs.
	targets := sample(rng, feedLikeASes(n), 114)
	var cases, avoidable int
	for _, t := range targets {
		if t == origin {
			continue
		}
		prefix := topo.Block(t)
		// Paths to t as seen via each provider.
		var paths []topo.Path
		for _, mux := range muxes {
			if rt, ok := n.Eng.BestRoute(mux, prefix); ok {
				paths = append(paths, rt.Path.Prepend(mux))
			}
		}
		if len(paths) < 2 {
			continue
		}
		// The preferred route is via the first provider; its last AS link
		// before the destination is the failure under study.
		pref := paths[0]
		if len(pref) < 2 {
			continue // destination is directly a provider
		}
		linkA, linkB := pref[len(pref)-2], pref[len(pref)-1]
		cases++
		for _, alt := range paths[1:] {
			if !containsLink(alt, linkA, linkB) {
				avoidable++
				break
			}
		}
	}

	tab := &metrics.Table{
		Title:  "§2.3 — avoiding the last AS link before the destination via another provider",
		Header: []string{"cases", "avoidable", "fraction"},
	}
	tab.AddRow(cases, avoidable, frac(avoidable, cases))
	r.addTable(tab)
	r.Values["cases"] = float64(cases)
	r.Values["frac_forward_avoidable"] = frac(avoidable, cases)
	r.notef("paper: 90%% of last links avoidable via a different provider; measured %.0f%%",
		frac(avoidable, cases)*100)
	return r
}

// feedLikeASes returns the ASes plausible as route-collector feeds: all
// transits plus multihomed stubs.
func feedLikeASes(n *lifeguard.Network) []topo.ASN {
	out := append([]topo.ASN(nil), n.Gen.Transit...)
	for _, s := range n.Gen.Stubs {
		if len(n.Top.Providers(s)) >= 2 {
			out = append(out, s)
		}
	}
	return out
}

func containsLink(p topo.Path, a, b topo.ASN) bool {
	for i := 0; i+1 < len(p); i++ {
		if p[i] == a && p[i+1] == b {
			return true
		}
	}
	return false
}

// selective regenerates the §5.2 selective-poisoning study: with the origin
// announcing via five muxes, can it steer a given peer AS off its current
// first-hop AS link by poisoning the peer via all muxes but one, without
// cutting the peer off? The paper avoided 73% of the first-hop links of its
// 114 feed ASes this way (vs. 90% for forward paths).
func selective(seed int64, reg *obs.Registry) *Result {
	r := newResult("sec5.2-selective", "selective poisoning of first-hop AS links")
	n, rng := world(seed, topogen.Config{NumTransit: 35, NumStub: 120}, 5, bgp.Config{}, reg)
	origin := n.Gen.Origin
	muxes := n.Top.Providers(origin)
	prod := topo.ProductionPrefix(origin)

	baselinePattern := topo.Path{origin, origin, origin}
	announceBaseline := func() {
		n.Eng.Announce(origin, prod, bgp.OriginConfig{Pattern: baselinePattern})
		converge(n)
	}
	announceBaseline()

	peers := sample(rng, feedLikeASes(n), 60)
	var cases, avoided, keptRoute int
	for _, peer := range peers {
		if peer == origin {
			continue
		}
		base, ok := n.Eng.BestRoute(peer, prod)
		if !ok || len(base.Path) == 0 {
			continue
		}
		baseNext := base.Path[0]
		if baseNext == origin {
			continue // directly adjacent: no link to steer around
		}
		cases++
		for _, keep := range muxes {
			per := make(map[topo.ASN]topo.Path)
			for _, m := range muxes {
				if m != keep {
					per[m] = topo.Path{origin, peer, origin}
				}
			}
			n.Eng.Announce(origin, prod, bgp.OriginConfig{Pattern: baselinePattern, PerNeighbor: per})
			converge(n)
			rt, ok := n.Eng.BestRoute(peer, prod)
			if ok {
				keptRoute++
			}
			if ok && rt.Path[0] != baseNext {
				avoided++
				break
			}
		}
		announceBaseline()
	}

	tab := &metrics.Table{
		Title:  "§5.2 — selective poisoning: first-hop link avoidance",
		Header: []string{"peer cases", "link avoided", "fraction"},
	}
	tab.AddRow(cases, avoided, frac(avoided, cases))
	r.addTable(tab)
	r.Values["cases"] = float64(cases)
	r.Values["frac_links_avoided"] = frac(avoided, cases)
	r.Values["trials_peer_kept_route"] = float64(keptRoute)
	r.notef("paper: selective poisoning avoided 73%% of first-hop AS links while keeping the peer routed; measured %.0f%%",
		frac(avoided, cases)*100)
	return r
}
