// Package topogen synthesizes Internet-like topologies: a clique of Tier-1
// ASes, a transit hierarchy attached by preferential attachment, and a
// power-law-ish fringe of stub ASes — each AS realized with a hub router
// and per-adjacency border routers so the data plane produces realistic
// traceroutes. It stands in for the real AS topology (BGP feeds + the
// BitTorrent-extended graph of §5.1), which an offline reproduction cannot
// download.
//
// Two generators share the same shape model: the default one, tuned for the
// few-hundred-AS experiment rigs, and a large mode (Config.Large) that lays
// out 10k+-AS graphs with flat arrays and a Fenwick tree instead of per-AS
// maps — see largemode.go.
package topogen

import (
	"fmt"
	"math/rand"

	"lifeguard/internal/topo"
)

// maxASes bounds generated topologies: the generator allocates ASNs
// contiguously from 1 and every AS owns an address block, so the address
// plan's topo.MaxASN (not the 32-bit ASN type) is the binding constraint —
// with headroom kept for callers that append experiment-specific ASes
// (GenerateWithOrigin).
const maxASes = 65000

// Config controls generation. Zero values select defaults.
type Config struct {
	Seed int64
	// NumTier1 is the size of the transit-free clique. Default 5.
	NumTier1 int
	// NumTransit is the number of mid-tier transit ASes. Default 40.
	NumTransit int
	// NumStub is the number of edge ASes. Default 150.
	NumStub int
	// TransitExtraProviderProb is the chance a transit AS gets a second
	// provider. Default 0.5.
	TransitExtraProviderProb float64
	// StubMultihomeProb is the chance a stub gets a second provider
	// (multihoming is what lets poisoning find alternates). Default 0.55.
	StubMultihomeProb float64
	// TransitPeerProb is the probability that any given pair of transit
	// ASes peers. Default 0.05.
	TransitPeerProb float64

	// Large selects the flat-array generator for 10k+-AS topologies. It is
	// a distinct shape model (same construction rules, different sampling
	// order), so Large and non-Large runs of the same seed produce
	// different — but individually deterministic — graphs.
	Large bool
}

func (c Config) withDefaults() Config {
	if c.NumTier1 == 0 {
		c.NumTier1 = 5
	}
	if c.NumTransit == 0 {
		c.NumTransit = 40
	}
	if c.NumStub == 0 {
		c.NumStub = 150
	}
	if c.TransitExtraProviderProb == 0 {
		c.TransitExtraProviderProb = 0.5
	}
	if c.StubMultihomeProb == 0 {
		c.StubMultihomeProb = 0.55
	}
	if c.TransitPeerProb == 0 {
		c.TransitPeerProb = 0.05
	}
	return c
}

// validate rejects configurations the generators cannot realize. Degenerate
// pool shapes (e.g. a negative NumTier1 leaving transits with no providers)
// are not pre-screened here; they surface as attachment errors so the
// failing AS is named in the diagnostic.
func (c Config) validate() error {
	if total := c.NumTier1 + c.NumTransit + c.NumStub; total > maxASes {
		return fmt.Errorf("topogen: %d ASes exceeds the %d limit of the address plan", total, maxASes)
	}
	return nil
}

// Result carries the generated topology and the role of each AS.
type Result struct {
	Top     *topo.Topology
	Tier1s  []topo.ASN
	Transit []topo.ASN
	Stubs   []topo.ASN
	// Origin is the multihomed measurement stub added by
	// GenerateWithOrigin (zero otherwise).
	Origin topo.ASN
}

// AllASNs returns every generated ASN (tier1, transit, stub order).
func (r *Result) AllASNs() []topo.ASN {
	out := make([]topo.ASN, 0, len(r.Tier1s)+len(r.Transit)+len(r.Stubs))
	out = append(out, r.Tier1s...)
	out = append(out, r.Transit...)
	out = append(out, r.Stubs...)
	return out
}

// Generate builds a topology for the config. Identical configs produce
// identical topologies.
func Generate(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	b, res, _, _, err := synth(cfg)
	if err != nil {
		return nil, err
	}
	return finish(b, res)
}

// GenerateWithOrigin builds the same internetwork as Generate plus one
// extra multihomed stub — the LIFEGUARD origin — attached to `providers`
// distinct transit ASes, mirroring the paper's BGP-Mux deployment (one AS
// announcing via several university muxes). The origin is reported in
// Result.Origin.
func GenerateWithOrigin(cfg Config, providers int) (*Result, error) {
	cfg = cfg.withDefaults()
	if providers < 1 {
		providers = 1
	}
	b, res, rng, next, err := synth(cfg)
	if err != nil {
		return nil, err
	}
	if len(res.Transit) == 0 {
		return nil, fmt.Errorf("topogen: origin needs transit providers, config has none")
	}
	origin := next
	as := b.AddAS(origin, fmt.Sprintf("ORIGIN%d", origin))
	as.Tier = 3
	b.AddRouter(origin, "")
	if providers > len(res.Transit) {
		providers = len(res.Transit)
	}
	perm := rng.Perm(len(res.Transit))
	for _, i := range perm[:providers] {
		p := res.Transit[i]
		b.Provider(origin, p)
		b.ConnectAS(origin, p)
	}
	res.Origin = origin
	return finish(b, res)
}

// synth lays out the AS graph without building it, so callers can append
// experiment-specific ASes. It returns the builder, the roles, the RNG, and
// the next unused ASN. cfg must already have defaults applied.
func synth(cfg Config) (*topo.Builder, *Result, *rand.Rand, topo.ASN, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, nil, 0, err
	}
	if cfg.Large {
		return largeSynth(cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := topo.NewBuilder()
	res := &Result{}

	next := topo.ASN(1)
	newAS := func(name string, tier int) topo.ASN {
		asn := next
		next++
		as := b.AddAS(asn, fmt.Sprintf("%s%d", name, asn))
		as.Tier = tier
		b.AddRouter(asn, "") // hub
		return asn
	}

	// Tier-1 clique.
	for i := 0; i < cfg.NumTier1; i++ {
		asn := newAS("T1-", 1)
		res.Tier1s = append(res.Tier1s, asn)
	}
	for i := 0; i < len(res.Tier1s); i++ {
		for j := i + 1; j < len(res.Tier1s); j++ {
			b.Peer(res.Tier1s[i], res.Tier1s[j])
			b.ConnectAS(res.Tier1s[i], res.Tier1s[j])
		}
	}
	// degree tracks attachment weight for preferential attachment.
	degree := make(map[topo.ASN]int)
	for _, t := range res.Tier1s {
		degree[t] = cfg.NumTier1 - 1
	}
	pickWeighted := func(cands []topo.ASN, exclude map[topo.ASN]bool) topo.ASN {
		total := 0
		for _, c := range cands {
			if !exclude[c] {
				total += degree[c] + 1
			}
		}
		if total == 0 {
			return 0 // no candidate: every pool member is excluded (or the pool is empty)
		}
		x := rng.Intn(total)
		for _, c := range cands {
			if exclude[c] {
				continue
			}
			x -= degree[c] + 1
			if x < 0 {
				return c
			}
		}
		return 0
	}

	attach := func(child topo.ASN, pool []topo.ASN, extraProb float64) error {
		exclude := map[topo.ASN]bool{child: true}
		p1 := pickWeighted(pool, exclude)
		if p1 == 0 {
			// pickWeighted's failure sentinel: without this guard the 0
			// would flow into Provider/ConnectAS as a bogus ASN.
			return fmt.Errorf("topogen: no provider candidate for AS %d (pool of %d all excluded)", child, len(pool))
		}
		b.Provider(child, p1)
		b.ConnectAS(child, p1)
		degree[p1]++
		degree[child]++
		if rng.Float64() < extraProb {
			exclude[p1] = true
			if p2 := pickWeighted(pool, exclude); p2 != 0 {
				b.Provider(child, p2)
				b.ConnectAS(child, p2)
				degree[p2]++
				degree[child]++
			}
		}
		return nil
	}

	// Transit tier: providers drawn from Tier-1s and earlier transits.
	pool := append([]topo.ASN(nil), res.Tier1s...)
	for i := 0; i < cfg.NumTransit; i++ {
		asn := newAS("TR-", 2)
		if err := attach(asn, pool, cfg.TransitExtraProviderProb); err != nil {
			return nil, nil, nil, 0, err
		}
		res.Transit = append(res.Transit, asn)
		pool = append(pool, asn)
	}

	// Peering among transits.
	for i := 0; i < len(res.Transit); i++ {
		for j := i + 1; j < len(res.Transit); j++ {
			a, c := res.Transit[i], res.Transit[j]
			if rng.Float64() < cfg.TransitPeerProb && !b.Related(a, c) {
				b.Peer(a, c)
				b.ConnectAS(a, c)
				degree[a]++
				degree[c]++
			}
		}
	}

	// Stubs attach to transits (and occasionally Tier-1s).
	stubPool := append(append([]topo.ASN(nil), res.Transit...), res.Tier1s...)
	for i := 0; i < cfg.NumStub; i++ {
		asn := newAS("ST-", 3)
		if err := attach(asn, stubPool, cfg.StubMultihomeProb); err != nil {
			return nil, nil, nil, 0, err
		}
		res.Stubs = append(res.Stubs, asn)
	}

	return b, res, rng, next, nil
}

// finish validates the builder and stores the topology in res.
func finish(b *topo.Builder, res *Result) (*Result, error) {
	top, err := b.Build()
	if err != nil {
		return nil, err
	}
	res.Top = top
	return res, nil
}
