package experiments

import (
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

// Ablations lists the design-choice studies that go beyond the paper's
// published artifacts: each isolates one LIFEGUARD mechanism and measures
// what breaks without it.
func Ablations() []Experiment {
	return []Experiment{
		{"abl-threshold", "poison-maturity threshold: wasted poisons vs downtime avoided (§4.2)", thresholdScenario},
		{"abl-precheck", "alternate-path precheck: harmful poisons prevented (§4.2)", single(ablationPrecheck)},
		{"abl-dampening", "unpoison pacing vs route-flap dampening (§5)", dampeningScenario},
	}
}

// ablationThresholds is the swept set of minimum outage ages, in sweep
// (and hence trial/row) order.
var ablationThresholds = []time.Duration{0, time.Minute, 3 * time.Minute, 5 * time.Minute, 10 * time.Minute, 15 * time.Minute}

// thresholdPart is one threshold's partial result. Every trial
// regenerates the same deterministic event set from the seed, so the
// per-threshold counts are independent.
type thresholdPart struct {
	threshold       time.Duration
	poisons, wasted int
	saved, total    float64
}

func thresholdSweep(seed int64, th time.Duration) *thresholdPart {
	events := outage.Generate(outage.Config{Seed: seed, N: 50000})
	const detect = 2 * time.Minute   // monitoring declares after ~4 rounds
	const converge = 2 * time.Minute // poisoned routes settle

	p := &thresholdPart{threshold: th}
	for i := range events {
		p.total += events[i].Duration.Seconds()
	}
	trigger := detect + th
	for i := range events {
		d := events[i].Duration
		if d <= trigger {
			continue // healed before we would have poisoned
		}
		p.poisons++
		if d <= trigger+converge {
			p.wasted++ // healed before the poison even converged
			continue
		}
		p.saved += (d - trigger - converge).Seconds()
	}
	return p
}

// thresholdScenario sweeps the minimum outage age before poisoning, one
// trial per threshold. Too eager wastes poisons on outages that were
// about to heal anyway (pure churn); too patient forfeits avoidable
// downtime. The paper picks ~5 minutes from the Fig. 5 residuals; this
// quantifies the trade-off.
var thresholdScenario = sweep(ablationThresholds,
	func(seed int64, th time.Duration, _ *obs.Registry) *thresholdPart { return thresholdSweep(seed, th) },
	reduceThreshold)

func reduceThreshold(parts []*thresholdPart) *Result {
	r := newResult("abl-threshold", "poison-maturity threshold trade-off")
	tab := &metrics.Table{
		Title:  "ablation — when to poison",
		Header: []string{"threshold (min)", "poisons", "wasted (healed first)", "wasted frac", "downtime avoided"},
	}
	for _, p := range parts {
		tab.AddRow(p.threshold.Minutes(), p.poisons, p.wasted, frac(p.wasted, p.poisons), p.saved/p.total)
		key := p.threshold.String()
		r.Values["poisons_"+key] = float64(p.poisons)
		r.Values["wasted_frac_"+key] = frac(p.wasted, p.poisons)
		r.Values["avoided_"+key] = p.saved / p.total
	}
	r.addTable(tab)
	r.notef("the paper's ~5 min threshold: nearly all long-tail downtime is still avoided while poison volume drops ~%.0fx vs poisoning immediately",
		r.Values["poisons_0s"]/r.Values["poisons_5m0s"])
	r.notef("thresholds beyond ~10 min stop paying: wasted-poison rate stays low but avoided downtime declines")
	return r
}

// ablationPrecheck measures what the §4.2 alternate-path precheck buys:
// without it, a poison against an AS that is some victim's only path cuts
// that victim off entirely (worse than the outage, which was partial).
func ablationPrecheck(seed int64, reg *obs.Registry) *Result {
	r := newResult("abl-precheck", "alternate-path precheck value")
	n, rng := world(seed, topogen.Config{NumTransit: 15, NumStub: 40}, 1, bgp.Config{}, reg)
	origin := n.Gen.Origin
	prod := topo.ProductionPrefix(origin)
	n.Eng.Announce(origin, prod, bgp.OriginConfig{Pattern: topo.Path{origin, origin, origin}})
	converge(n)

	// For every (victim stub, transit on its path) pair: would poisoning
	// that transit sever the victim? The precheck predicts it; poisoning
	// confirms it.
	victims := sample(rng, n.Gen.Stubs, 30)
	var cases, severed, predicted, agree int
	for _, v := range victims {
		if v == origin {
			continue
		}
		path := n.Eng.ASPathTo(v, topo.ProductionAddr(origin))
		for _, a := range transitHops(path) {
			if a == v {
				continue
			}
			cases++
			pred := !canReachAvoiding(n, v, a)
			if pred {
				predicted++
			}
			n.Eng.Announce(origin, prod, bgp.OriginConfig{Pattern: topo.Path{origin, a, origin}})
			converge(n)
			_, ok := n.Eng.BestRoute(v, prod)
			if !ok {
				severed++
			}
			if pred == !ok {
				agree++
			}
			n.Eng.Announce(origin, prod, bgp.OriginConfig{Pattern: topo.Path{origin, origin, origin}})
			converge(n)
		}
	}
	tab := &metrics.Table{
		Title:  "ablation — poisoning without the alternate-path precheck",
		Header: []string{"poison cases", "victims severed", "precheck predicted", "prediction agreement"},
	}
	tab.AddRow(cases, severed, predicted, frac(agree, cases))
	r.addTable(tab)
	r.Values["cases"] = float64(cases)
	r.Values["frac_severed_without_precheck"] = frac(severed, cases)
	r.Values["precheck_agreement"] = frac(agree, cases)
	r.notef("without the precheck, %.0f%% of naive poisons would sever the very victim they meant to help; the static precheck predicts severance with %.0f%% agreement",
		frac(severed, cases)*100, frac(agree, cases)*100)
	return r
}

// ablationPeriods is the swept set of poison/unpoison cycle periods, in
// sweep (and hence trial/row) order.
var ablationPeriods = []time.Duration{5 * time.Minute, 15 * time.Minute, 45 * time.Minute, 90 * time.Minute}

// dampeningPart is one cycle period's partial result. Each trial builds
// its own dampening-enabled internetwork, so no period's run shares
// engine state with another's.
type dampeningPart struct {
	period                         time.Duration
	cycles                         int
	maxSuppressing, maxUnreachable int
	asesTotal                      int
}

func dampeningSweep(seed int64, period time.Duration, reg *obs.Registry) *dampeningPart {
	n, victim := dampeningNet(seed, reg)
	origin := n.Gen.Origin
	prod := topo.ProductionPrefix(origin)
	base := topo.Path{origin, origin, origin}
	n.Eng.Announce(origin, prod, bgp.OriginConfig{Pattern: base})
	converge(n)
	p := &dampeningPart{period: period, cycles: 6, asesTotal: n.Top.NumASes() - 1}
	sampleState := func() {
		suppressing, unreachable := 0, 0
		for _, asn := range n.Top.ASNs() {
			if asn == origin {
				continue
			}
			s := n.Eng.Speaker(asn)
			for _, nb := range n.Top.Neighbors(asn) {
				if s.Suppressed(nb, prod) {
					suppressing++
					break
				}
			}
			if _, ok := n.Eng.BestRoute(asn, prod); !ok {
				unreachable++
			}
		}
		p.maxSuppressing = max(p.maxSuppressing, suppressing)
		p.maxUnreachable = max(p.maxUnreachable, unreachable)
	}
	for i := 0; i < p.cycles; i++ {
		n.Clk.RunFor(period)
		n.Eng.Announce(origin, prod, bgp.OriginConfig{Pattern: topo.Path{origin, victim, origin}})
		converge(n)
		sampleState()
		n.Clk.RunFor(period)
		n.Eng.Announce(origin, prod, bgp.OriginConfig{Pattern: base})
		converge(n)
		sampleState()
	}
	return p
}

// dampeningScenario sweeps how fast an origin cycles poison/unpoison on a
// dampening-enabled internetwork — one trial per period — and measures
// how many ASes end up suppressing the production prefix: the §5
// rationale for 90-minute announcement pacing.
var dampeningScenario = sweep(ablationPeriods, dampeningSweep, reduceDampening)

func reduceDampening(parts []*dampeningPart) *Result {
	r := newResult("abl-dampening", "repair pacing vs route-flap dampening")
	tab := &metrics.Table{
		Title:  "ablation — poison/unpoison cycle period vs suppression",
		Header: []string{"cycle period", "cycles", "peak ASes suppressing", "peak frac suppressing", "peak frac unreachable"},
	}
	for _, p := range parts {
		fracSupp := float64(p.maxSuppressing) / float64(p.asesTotal)
		fracUnreach := float64(p.maxUnreachable) / float64(p.asesTotal)
		tab.AddRow(p.period.String(), p.cycles, p.maxSuppressing, fracSupp, fracUnreach)
		r.Values["frac_suppressing_"+p.period.String()] = fracSupp
		r.Values["frac_unreachable_"+p.period.String()] = fracUnreach
	}
	r.addTable(tab)
	r.notef("fast repair cycling trips RFC 2439 dampening internetwork-wide (5-minute cycling peaks at total unreachability); the paper's 90-minute pacing keeps the impact marginal")
	return r
}

// dampeningNet builds a small dampening-enabled internetwork with an origin
// and a poison victim on collector paths.
func dampeningNet(seed int64, reg *obs.Registry) (*lifeguard.Network, topo.ASN) {
	n, _ := world(seed, topogen.Config{NumTier1: 3, NumTransit: 10, NumStub: 25}, 1,
		bgp.Config{Dampening: true}, reg)
	// Victim: any transit that is not the origin's provider.
	mux := n.Top.Providers(n.Gen.Origin)[0]
	for _, tr := range n.Gen.Transit {
		if tr != mux {
			return n, tr
		}
	}
	return n, n.Gen.Transit[0]
}

func canReachAvoiding(n *lifeguard.Network, src, avoid topo.ASN) bool {
	return splice.CanReach(n.Top, src, n.Gen.Origin, splice.Avoid1(avoid))
}
