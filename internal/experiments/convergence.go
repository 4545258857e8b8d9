package experiments

import (
	"net/netip"
	"time"

	"lifeguard"
	"lifeguard/internal/bgp"
	"lifeguard/internal/collectors"
	"lifeguard/internal/metrics"
	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// Fig. 6 and the §5.2 numbers compare two origin baselines — prepended
// "O-O-O" and plain "O" — over the same poison set. The two baselines
// never interact: each per-victim cycle re-announces its baseline and
// converges before measuring, so the prepend and no-prepend sweeps are
// independent trials that share only the deterministically rebuilt rig
// (net, collectors, victim sample).

// convRig is the Fig. 6 deployment each convergence trial reconstructs.
type convRig struct {
	n              *lifeguard.Network
	prod           netip.Prefix
	coll           *collectors.Collector
	victims        []topo.ASN
	plain, prepend topo.Path
}

func buildConvRig(seed int64, reg *obs.Registry) *convRig {
	n, rng := world(seed, topogen.Config{NumTransit: 30, NumStub: 100}, 1, bgp.Config{}, reg)
	origin := n.Gen.Origin
	rig := &convRig{
		n:    n,
		prod: topo.ProductionPrefix(origin),
	}
	rig.plain = topo.Path{origin}
	rig.prepend = topo.Path{origin, origin, origin}

	peerSet := sample(rng, append(append([]topo.ASN(nil), n.Gen.Stubs...), n.Gen.Transit...), 50)
	rig.coll = collectors.New(n.Eng)
	rig.coll.Instrument(reg)
	for _, p := range peerSet {
		if p != origin {
			rig.coll.AddPeer(p)
		}
	}

	n.Eng.Announce(origin, rig.prod, bgp.OriginConfig{Pattern: rig.plain})
	converge(n)

	poisonable := poisonCandidate(n)
	for _, a := range rig.coll.HarvestASes(rig.prod, origin) {
		if poisonable(a) {
			rig.victims = append(rig.victims, a)
		}
	}
	if len(rig.victims) > 25 {
		rig.victims = sample(rng, rig.victims, 25)
	}
	return rig
}

// convBucket accumulates per-peer convergence behaviour for one
// (baseline, was-on-path) class.
type convBucket struct {
	settle       metrics.Sample
	singleUpdate metrics.Counter
	instant      metrics.Counter
	updatesTotal float64
}

// convPart is one baseline sweep's partial result.
type convPart struct {
	poisons  int
	change   convBucket
	noChange convBucket
	global   metrics.Sample
}

// convergenceSweep poisons every victim once from the given baseline and
// measures per-peer convergence (burst width from the collectors'
// report), separated by whether the peer had been routing through the
// poisoned AS.
func convergenceSweep(seed int64, usePrepend bool, reg *obs.Registry) *convPart {
	rig := buildConvRig(seed, reg)
	n := rig.n
	origin := n.Gen.Origin
	baseline := rig.plain
	if usePrepend {
		baseline = rig.prepend
	}
	p := &convPart{poisons: len(rig.victims)}
	for _, a := range rig.victims {
		n.Eng.Announce(origin, rig.prod, bgp.OriginConfig{Pattern: baseline})
		converge(n)
		since := n.Clk.Now()
		n.Eng.Announce(origin, rig.prod, bgp.OriginConfig{Pattern: topo.Path{origin, a, origin}})
		converge(n)
		if g, ok := rig.coll.GlobalConvergenceTime(rig.prod, since); ok {
			p.global.AddDuration(g)
		}
		for _, pc := range rig.coll.ConvergenceReport(rig.prod, since, a) {
			if pc.Peer == a {
				continue
			}
			b := &p.noChange
			if pc.WasOnPath {
				b = &p.change
			}
			if !pc.Updated {
				// Never saw the poison (filtered upstream): counts
				// as instantly converged with zero updates.
				b.instant.Observe(true)
				b.singleUpdate.Observe(true)
				b.settle.Add(0)
				continue
			}
			st := pc.SettleTime(pc.First) // burst width
			b.settle.AddDuration(st)
			b.instant.Observe(st == 0)
			b.singleUpdate.Observe(pc.NumUpdates == 1)
			b.updatesTotal += float64(pc.NumUpdates)
		}
	}
	return p
}

// convergenceScenario regenerates Fig. 6 and the §5.2 global-convergence
// numbers. The paper: with prepending, >95% of unaffected peers converge
// instantly and 97% emit a single update; without prepending only ~64%
// emit a single update; global convergence medians 91s (prepend) vs 133s.
// The two trials are the prepend and the no-prepend sweep, in that order.
var convergenceScenario = sweep([]bool{true, false}, convergenceSweep, reduceConvergence)

func reduceConvergence(parts []*convPart) *Result {
	pre, pla := parts[0], parts[1]
	r := newResult("fig6", "convergence after poisoned announcements")

	buckets := map[string]*convBucket{
		"prepend-change":      &pre.change,
		"prepend-no-change":   &pre.noChange,
		"noprepend-change":    &pla.change,
		"noprepend-no-change": &pla.noChange,
	}

	tab := &metrics.Table{
		Title:  "Fig. 6 — per-peer convergence after poisoning",
		Header: []string{"bucket", "peers", "frac instant", "frac single-update", "p50 (s)", "p95 (s)"},
	}
	for _, key := range []string{"prepend-no-change", "noprepend-no-change", "prepend-change", "noprepend-change"} {
		b := buckets[key]
		tab.AddRow(key, b.settle.N(), b.instant.Fraction(), b.singleUpdate.Fraction(),
			b.settle.Percentile(50), b.settle.Percentile(95))
	}
	r.addTable(tab)

	gt := &metrics.Table{
		Title:  "§5.2 — global convergence time (s)",
		Header: []string{"baseline", "p50", "p75", "p90"},
	}
	gt.AddRow("prepend (O-O-O)", pre.global.Percentile(50), pre.global.Percentile(75), pre.global.Percentile(90))
	gt.AddRow("no prepend (O)", pla.global.Percentile(50), pla.global.Percentile(75), pla.global.Percentile(90))
	r.addTable(gt)

	// U — updates per router per poison, the Table 2 parameter (paper:
	// 2.03 for routers that had been routing via the poisoned AS, 1.07
	// for the rest; both ≈1 extra update of pure overhead).
	uOf := func(b *convBucket) float64 {
		if b.singleUpdate.Total == 0 {
			return 0
		}
		return b.updatesTotal / float64(b.singleUpdate.Total)
	}
	r.Values["U_change_prepend"] = uOf(&pre.change)
	r.Values["U_nochange_prepend"] = uOf(&pre.noChange)
	r.Values["U_nochange_noprepend"] = uOf(&pla.noChange)

	r.Values["poisons"] = float64(pre.poisons)
	r.Values["prepend_nochange_frac_instant"] = pre.noChange.instant.Fraction()
	r.Values["prepend_nochange_frac_single_update"] = pre.noChange.singleUpdate.Fraction()
	r.Values["noprepend_nochange_frac_single_update"] = pla.noChange.singleUpdate.Fraction()
	r.Values["global_p50_prepend_s"] = pre.global.Percentile(50)
	r.Values["global_p50_noprepend_s"] = pla.global.Percentile(50)
	r.Values["global_p90_prepend_s"] = pre.global.Percentile(90)

	r.notef("paper: >95%% of unaffected peers converge instantly with prepending; measured %.0f%%",
		pre.noChange.instant.Fraction()*100)
	r.notef("paper: 97%% single-update (prepend) vs 64%% (no prepend) for unaffected peers; measured %.0f%% vs %.0f%%",
		pre.noChange.singleUpdate.Fraction()*100,
		pla.noChange.singleUpdate.Fraction()*100)
	r.notef("paper: global convergence median 91s (prepend) vs 133s (no prepend); measured %.0fs vs %.0fs",
		pre.global.Percentile(50), pla.global.Percentile(50))
	r.notef("paper Table 2 parameter U: 2.03 updates/router (was on path) vs 1.07 (was not); measured %.2f vs %.2f",
		r.Values["U_change_prepend"], r.Values["U_nochange_prepend"])
	return r
}

// lossRig is the §5.2 loss deployment each loss trial reconstructs.
type lossRig struct {
	n       *lifeguard.Network
	prod    netip.Prefix
	prepend topo.Path
	sites   []topo.ASN
	victims []topo.ASN
}

func buildLossRig(seed int64, reg *obs.Registry) *lossRig {
	n, rng := world(seed, topogen.Config{NumTransit: 30, NumStub: 100}, 1, bgp.Config{}, reg)
	origin := n.Gen.Origin
	rig := &lossRig{n: n, prod: topo.ProductionPrefix(origin)}
	rig.prepend = topo.Path{origin, origin, origin}
	n.Eng.Announce(origin, rig.prod, bgp.OriginConfig{Pattern: rig.prepend})
	converge(n)

	rig.sites = sample(rng, n.Gen.Stubs, 40)
	rig.victims = harvestForLoss(n, rig.sites)
	if len(rig.victims) > 20 {
		rig.victims = rig.victims[:20]
	}
	return rig
}

// lossPart is the loss trial's result.
type lossPart struct {
	lossRates metrics.Sample
	spikes    metrics.Counter
	under1    metrics.Counter
	under2    metrics.Counter
}

// lossSweep measures convergence-window loss for every victim in turn. Each
// victim's cycle re-converges its baseline before poisoning.
func lossSweep(seed int64, reg *obs.Registry) *lossPart {
	rig := buildLossRig(seed, reg)
	n := rig.n
	origin := n.Gen.Origin
	p := &lossPart{}
	srcAddr := topo.ProductionAddr(origin)
	hub := n.Hub(origin)

	for _, a := range rig.victims {
		n.Eng.Announce(origin, rig.prod, bgp.OriginConfig{Pattern: rig.prepend})
		converge(n)
		// Sites cut off entirely by this poison are excluded, as in the
		// paper.
		cut := make(map[topo.ASN]bool)
		n.Eng.Announce(origin, rig.prod, bgp.OriginConfig{Pattern: topo.Path{origin, a, origin}})

		sent, lost := 0, 0
		spike := false
		for !n.Eng.Quiescent() {
			n.Clk.RunFor(10 * time.Second)
			roundSent, roundLost := 0, 0
			for _, s := range rig.sites {
				if s == a || cut[s] {
					continue
				}
				rep := pingSite(n, hub, srcAddr, s)
				roundSent++
				if !rep {
					roundLost++
				}
			}
			sent += roundSent
			lost += roundLost
			if roundSent > 0 && float64(roundLost)/float64(roundSent) > 0.10 {
				spike = true
			}
		}
		// Determine and retroactively exclude cut-off sites.
		excluded := 0
		for _, s := range rig.sites {
			if _, ok := n.Eng.BestRoute(s, rig.prod); !ok {
				cut[s] = true
				excluded++
			}
		}
		if sent == 0 {
			continue
		}
		// Approximate exclusion: remove the cut sites' rounds from the
		// tally (they lost everything after the poison reached them).
		rate := float64(lost) / float64(sent)
		if excluded > 0 {
			adj := float64(lost) - float64(excluded)*float64(sent)/float64(len(rig.sites))
			if adj < 0 {
				adj = 0
			}
			rate = adj / float64(sent)
		}
		p.lossRates.Add(rate)
		p.under1.Observe(rate < 0.01)
		p.under2.Observe(rate < 0.02)
		p.spikes.Observe(spike)
	}
	return p
}

// lossScenario regenerates the §5.2 loss measurement: during the
// convergence window after each poisoning, ping all measurement sites from
// the production prefix every 10 virtual seconds and compute the loss rate.
// The paper: loss under 1% for 60% of poisonings, under 2% for 98%, and
// only 2% of poisonings had any 10-second round above 10% loss. It is one
// trial: one world, every victim in turn.
var lossScenario = single(func(seed int64, reg *obs.Registry) *Result {
	return reduceLoss(lossSweep(seed, reg))
})

func reduceLoss(p *lossPart) *Result {
	r := newResult("sec5.2-loss", "packet loss during post-poisoning convergence")
	tab := &metrics.Table{
		Title:  "§5.2 — loss during convergence",
		Header: []string{"poisonings", "frac <1% loss", "frac <2% loss", "frac w/ >10% round"},
	}
	tab.AddRow(p.lossRates.N(), p.under1.Fraction(), p.under2.Fraction(), p.spikes.Fraction())
	r.addTable(tab)

	r.Values["poisonings"] = float64(p.lossRates.N())
	r.Values["frac_loss_under_1pct"] = p.under1.Fraction()
	r.Values["frac_loss_under_2pct"] = p.under2.Fraction()
	r.Values["frac_with_spike_round"] = p.spikes.Fraction()
	r.Values["median_loss_rate"] = p.lossRates.Percentile(50)

	r.notef("paper: <1%% loss after 60%% of poisonings; measured %.0f%%", p.under1.Fraction()*100)
	r.notef("paper: <2%% loss for 98%% of poisonings; measured %.0f%%", p.under2.Fraction()*100)
	r.notef("paper: only 2%% of poisonings had any 10s round over 10%% loss; measured %.0f%%", p.spikes.Fraction()*100)
	return r
}

// harvestForLoss picks poison victims: transit ASes on the reverse paths
// from the measurement sites to the origin.
func harvestForLoss(n *lifeguard.Network, sites []topo.ASN) []topo.ASN {
	poisonable := poisonCandidate(n)
	origin := n.Gen.Origin
	seen := make(map[topo.ASN]bool)
	var out []topo.ASN
	for _, s := range sites {
		for _, h := range transitHops(n.Eng.ASPathTo(s, topo.ProductionAddr(origin))) {
			if !seen[h] && poisonable(h) && h != s {
				seen[h] = true
				out = append(out, h)
			}
		}
	}
	return out
}

// pingSite sends one production-sourced ping to the site hub and reports
// bidirectional success.
func pingSite(n *lifeguard.Network, hub topo.RouterID, srcAddr netip.Addr, site topo.ASN) bool {
	dst := n.RouterAddr(n.Hub(site))
	return n.Prober.PingFromAddr(hub, srcAddr, dst).OK
}
