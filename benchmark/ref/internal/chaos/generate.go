package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"lifeguard/internal/outage"
	"lifeguard/internal/topo"
)

// GenConfig parameterizes the stochastic script generator. Timing, kind,
// direction, and partiality come from internal/outage's calibrated
// distributions (EC2 duration tail, 38% link share, §4.1 direction mix);
// this config only adds what a *live* injection needs: sites, intensity,
// and barrier placement.
type GenConfig struct {
	// Seed drives both the outage workload and the site/parameter draws.
	Seed int64
	// N is the number of faults to schedule. Default 5.
	N int
	// Intensity scales fault density: mean interarrival is divided by it,
	// so 2.0 packs faults twice as tight. Default 1.
	Intensity float64
	// Outage overrides the calibrated outage distributions. Zero values
	// keep the paper-calibrated defaults, except MaxDuration which the
	// generator caps at 10 minutes by default so scripts stay runnable
	// (the EC2 tail reaches 72h).
	Outage outage.Config
	// Avoid lists ASes never picked as fault sites (typically the origin
	// and vantage points, which the paper assumes stay up).
	Avoid []topo.ASN
	// CheckEvery inserts an invariant barrier after every k-th fault's
	// heal time. 0 means only the implicit final barrier the Runner adds.
	CheckEvery int
	// Settle is the quiet gap between a heal and the barrier it triggers,
	// and between the last heal and the end of the script. Default 2m.
	Settle time.Duration
}

func (c GenConfig) withDefaults() GenConfig {
	if c.N == 0 {
		c.N = 5
	}
	if c.Intensity == 0 {
		c.Intensity = 1
	}
	if c.Settle == 0 {
		c.Settle = 2 * time.Minute
	}
	if c.Outage.MaxDuration == 0 {
		c.Outage.MaxDuration = 10 * time.Minute
	}
	if c.Outage.MeanInterarrival == 0 {
		c.Outage.MeanInterarrival = 5 * time.Minute
	}
	c.Outage.MeanInterarrival = time.Duration(float64(c.Outage.MeanInterarrival) / c.Intensity)
	return c
}

// GenerateScript samples a fault timeline for the topology. Each outage
// event's (kind, direction, partiality, duration) maps onto the fault
// vocabulary:
//
//	link + forward/reverse      → oneway (the directed drop)
//	link + bidirectional        → partial: delay; full: sessionreset
//	                              (<5m) or linkdown (≥5m)
//	internal + forward/reverse  → blackhole toward a victim's block
//	internal + bidi + partial   → loss (probabilistic)
//	internal + bidi + full      → crash
//
// The same (topology, config) always yields the same script: sites are
// drawn with a generator-private rng over the topology's deterministic AS
// and adjacency orderings.
func GenerateScript(top *topo.Topology, cfg GenConfig) (*Script, error) {
	cfg = cfg.withDefaults()
	ocfg := cfg.Outage
	ocfg.Seed = cfg.Seed
	ocfg.N = cfg.N
	events := outage.Generate(ocfg)

	avoid := make(map[topo.ASN]bool, len(cfg.Avoid))
	for _, a := range cfg.Avoid {
		avoid[a] = true
	}
	var sites []topo.ASN
	for _, asn := range top.ASNs() {
		if !avoid[asn] {
			sites = append(sites, asn)
		}
	}
	var links [][2]topo.ASN
	for _, a := range sites {
		for _, b := range top.Neighbors(a) {
			if a < b && !avoid[b] {
				links = append(links, [2]topo.ASN{a, b})
			}
		}
	}
	if len(sites) < 2 {
		return nil, fmt.Errorf("chaos: topology has %d eligible fault sites, need 2", len(sites))
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("chaos: no eligible adjacency to fault")
	}

	// A private stream for site/parameter draws, decoupled from the outage
	// workload so tweaking one distribution never reshuffles the other.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5F4A7C15))
	var s Script
	for i, ev := range events {
		f := faultFor(ev, rng, sites, links)
		s.Steps = append(s.Steps, Step{At: ev.Start, Fault: f, For: ev.Duration})
		if cfg.CheckEvery > 0 && (i+1)%cfg.CheckEvery == 0 {
			s.Steps = append(s.Steps, Step{At: ev.End() + cfg.Settle, Check: true})
		}
	}
	s.Steps = append(s.Steps, Step{At: s.End() + cfg.Settle, Check: true})
	sortSteps(s.Steps)
	return &s, nil
}

func faultFor(ev outage.Event, rng *rand.Rand, sites []topo.ASN, links [][2]topo.ASN) Fault {
	pickAS := func() topo.ASN { return sites[rng.Intn(len(sites))] }
	pickLink := func() [2]topo.ASN { return links[rng.Intn(len(links))] }

	if ev.Kind == outage.ASLink {
		l := pickLink()
		switch {
		case ev.Direction == outage.Forward:
			return &OneWayLoss{From: l[0], To: l[1]}
		case ev.Direction == outage.Reverse:
			return &OneWayLoss{From: l[1], To: l[0]}
		case ev.Partial:
			// Some control-plane capacity survives: updates crawl.
			d := ev.Duration / 4
			if d > 30*time.Second {
				d = 30 * time.Second
			}
			if d < time.Second {
				d = time.Second
			}
			return &UpdateDelay{A: l[0], B: l[1], Delay: d}
		case ev.Duration < 5*time.Minute:
			return &SessionReset{A: l[0], B: l[1]}
		default:
			return &LinkDown{A: l[0], B: l[1]}
		}
	}
	site := pickAS()
	switch {
	case ev.Direction != outage.Bidirectional:
		victim := pickAS()
		for victim == site {
			victim = pickAS()
		}
		return &BlackholeTowards{AS: site, Dst: topo.Block(victim)}
	case ev.Partial:
		return &PacketLoss{AS: site, Prob: 0.2 + 0.6*rng.Float64(), Seed: rng.Uint64()}
	default:
		return &RouterCrash{AS: site}
	}
}
