package experiments

import (
	"math/rand"
	"slices"
	"time"

	"lifeguard"
	"lifeguard/internal/bgp"
	"lifeguard/internal/metrics"
	"lifeguard/internal/obs"
	"lifeguard/internal/outage"
	"lifeguard/internal/splice"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// altPaths regenerates the §2.2 analysis: during outages between a mesh of
// measurement sites, how often do the observed traceroutes contain a
// working, policy-compliant spliced path around the failed AS? The paper
// found alternates for 49% of all outages, 83% of outages lasting at least
// an hour, and that 98% of alternates present in the first round persisted.
//
// Failure locations follow the paper's empirical pattern: long-lived
// problems concentrate in transit networks away from the edge (where path
// diversity is high), while short blips cluster at the destination's access
// providers (where a single-homed stub has no alternative) — that location
// skew is what makes alternate-path availability grow with outage duration.
func altPaths(seed int64, reg *obs.Registry) *Result {
	r := newResult("sec2.2", "policy-compliant alternate paths during outages")
	// PlanetLab-like conditions: sites are multihomed academic edge
	// networks, and the transit mesh is well peered.
	n, rng := world(seed, topogen.Config{NumTransit: 30, NumStub: 90,
		TransitPeerProb: 0.12, StubMultihomeProb: 0.75}, 0, bgp.Config{}, reg)

	// Site mix mirrors PlanetLab: mostly multihomed academic networks,
	// with a minority of single-homed sites.
	var multihomed, singlehomed []topo.ASN
	for _, s := range n.Gen.Stubs {
		if len(n.Top.Providers(s)) >= 2 {
			multihomed = append(multihomed, s)
		} else {
			singlehomed = append(singlehomed, s)
		}
	}
	sites := sample(rng, multihomed, 34)
	sites = append(sites, sample(rng, singlehomed, 16)...)
	type sitePair struct{ s, d int }

	// One week-equivalent of mesh traceroutes: every ordered site pair.
	obs := splice.NewObserved()
	fromSite := make(map[topo.ASN][]splice.HopPath)
	toSite := make(map[topo.ASN][]splice.HopPath)
	pathFor := make(map[sitePair]topo.Path)
	for i, s := range sites {
		for j, d := range sites {
			if i == j {
				continue
			}
			tr := n.Prober.Traceroute(n.Hub(s), n.RouterAddr(n.Hub(d)))
			if !tr.ReachedDst {
				continue
			}
			hp := splice.HopPath(slices.Clone(tr.Hops)) // the prober's buffer: kept, so copied
			obs.AddASPath(hp.ASPath())
			fromSite[s] = append(fromSite[s], hp)
			toSite[d] = append(toSite[d], hp)
			pathFor[sitePair{i, j}] = hp.ASPath()
		}
	}
	// The paper's export-policy corpus comes from a week of continuous
	// mesh rounds — on the order of a million traceroutes. Enrich the
	// observed-subpath index (only the index; splice candidates still
	// come from the site mesh) with paths from every stub to the sites.
	for _, s := range n.Gen.Stubs {
		for _, d := range n.Gen.Stubs {
			if s == d {
				continue
			}
			tr := n.Prober.Traceroute(n.Hub(s), n.RouterAddr(n.Hub(d)))
			if tr.ReachedDst {
				obs.AddASPath(splice.HopPath(tr.Hops).ASPath())
			}
		}
	}

	// Outage events: draw durations from the calibrated workload, then
	// place each failure on the live path of a random site pair.
	events := outage.Generate(outage.Config{Seed: seed, N: 1500})
	var all, allWithAlt, long, longWithAlt, persist, persistChecked int
	var reachable int // diagnostic upper bound: a valley-free path exists
	for _, ev := range events {
		i := rng.Intn(len(sites))
		j := rng.Intn(len(sites))
		if i == j {
			continue
		}
		path := pathFor[sitePair{i, j}]
		if len(path) < 3 {
			continue
		}
		d := sites[j]
		failAS, ok := chooseFailureAS(n, rng, path, ev.Duration)
		if !ok {
			continue
		}
		all++
		isLong := ev.Duration >= time.Hour
		if isLong {
			long++
		}
		if splice.CanReach(n.Top, sites[i], d, splice.Avoid1(failAS)) {
			reachable++
		}
		alt, found := splice.Splice(fromSite[sites[i]], toSite[d], failAS, obs)
		if found {
			allWithAlt++
			if isLong {
				longWithAlt++
			}
			// Persistence: does the same splice hold at the end of the
			// outage? Our control plane is static across the outage, so
			// re-validating the spliced path suffices.
			persistChecked++
			if stillValid(n, alt, failAS) {
				persist++
			}
		}
	}

	tab := &metrics.Table{
		Title:  "§2.2 — alternate policy-compliant paths during outages",
		Header: []string{"class", "outages", "with alternate", "fraction"},
	}
	tab.AddRow("all", all, allWithAlt, frac(allWithAlt, all))
	tab.AddRow(">=1h", long, longWithAlt, frac(longWithAlt, long))
	tab.AddRow("persisted", persistChecked, persist, frac(persist, persistChecked))
	r.addTable(tab)

	r.Values["outages"] = float64(all)
	r.Values["frac_valley_free_alternate_exists"] = frac(reachable, all)
	r.Values["frac_with_alternate"] = frac(allWithAlt, all)
	r.Values["frac_with_alternate_ge_1h"] = frac(longWithAlt, long)
	r.Values["frac_alternate_persisted"] = frac(persist, persistChecked)

	r.notef("paper: alternates existed for 49%% of outages; measured %.0f%%", frac(allWithAlt, all)*100)
	r.notef("paper: 83%% for outages >=1h; measured %.0f%%", frac(longWithAlt, long)*100)
	r.notef("paper: 98%% of first-round alternates persisted; measured %.0f%%", frac(persist, persistChecked)*100)
	return r
}

// chooseFailureAS picks where the outage lives on the path, biased by
// duration: short outages mostly at the destination's access provider
// (where a stub has little or no diversity), long outages in interior
// transit (where diversity is high). This is the empirical pattern behind
// the paper's §2.2 finding that alternate availability grows with duration.
func chooseFailureAS(n *lifeguard.Network, rng *rand.Rand, path topo.Path, d time.Duration) (topo.ASN, bool) {
	// path: src-side first, destination AS last.
	if len(path) < 3 {
		return 0, false
	}
	mid := path[1 : len(path)-1]
	accessProvider := mid[len(mid)-1] // the destination's provider
	interior := mid
	if len(mid) >= 3 {
		interior = mid[1 : len(mid)-1] // exclude both edges' access providers
	}
	pAccess := 0.65
	if d >= time.Hour {
		pAccess = 0.0
	} else if d >= 10*time.Minute {
		pAccess = 0.35
	}
	if rng.Float64() < pAccess {
		return accessProvider, true
	}
	// Long-lasting problems occur outside the largest networks (§7.1
	// cites [32, 36]): exclude Tier-1s from long-outage placement.
	if d >= 10*time.Minute {
		var nonT1 []topo.ASN
		for _, a := range interior {
			if n.Top.AS(a).Tier != 1 {
				nonT1 = append(nonT1, a)
			}
		}
		if len(nonT1) > 0 {
			interior = nonT1
		}
	}
	return interior[rng.Intn(len(interior))], true
}

// stillValid re-walks the spliced path hop sequence against the data plane
// to confirm adjacent hops remain connected and off the failed AS.
func stillValid(n *lifeguard.Network, alt splice.HopPath, failAS topo.ASN) bool {
	for _, h := range alt {
		if !h.Star && h.AS == failAS {
			return false
		}
	}
	// Adjacent spliced hops must still be reachable pairwise.
	var prev *topo.RouterID
	for i := range alt {
		if alt[i].Star {
			continue
		}
		cur := alt[i].Router
		if prev != nil && *prev != cur {
			// same-AS hops are intra-connected by construction; check
			// AS boundaries only, cheaply, via topology adjacency.
			a, b := n.Top.Router(*prev).AS, n.Top.Router(cur).AS
			if a != b && !n.Top.Adjacent(a, b) {
				return false
			}
		}
		prev = &cur
	}
	return true
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
