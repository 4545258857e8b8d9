package experiments

import (
	"fmt"
	"math/rand"

	"lifeguard/internal/bgp"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/obs"
	"lifeguard/internal/probe"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// net bundles the simulated internetwork an experiment runs over.
type net struct {
	gen    *topogen.Result
	top    *topo.Topology
	clk    *simclock.Scheduler
	eng    *bgp.Engine
	plane  *dataplane.Plane
	prober *probe.Prober
	rng    *rand.Rand
	reg    *obs.Registry // nil when the trial runs uninstrumented

	// origin, when built with buildWithOrigin, is the multihomed stub AS
	// playing the LIFEGUARD/BGP-Mux role; muxes are its providers.
	origin topo.ASN
	muxes  []topo.ASN
}

func (n *net) hub(asn topo.ASN) topo.RouterID { return n.top.AS(asn).Routers[0] }

func (n *net) converge() {
	if !n.eng.Converge(500_000_000) {
		panic("experiments: BGP did not converge")
	}
}

// build assembles a converged internetwork of the given size. reg, when
// non-nil, instruments every subsystem of the assembled network.
func build(seed int64, cfg topogen.Config, reg *obs.Registry) *net {
	cfg.Seed = seed
	gen, err := topogen.Generate(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: topogen: %v", err))
	}
	clk := simclock.New()
	eng := bgp.New(gen.Top, clk, bgp.Config{Seed: seed, Obs: reg})
	for _, asn := range gen.Top.ASNs() {
		eng.Originate(asn, topo.Block(asn))
	}
	n := &net{
		gen: gen, top: gen.Top, clk: clk, eng: eng,
		plane: dataplane.New(gen.Top, eng),
		rng:   rand.New(rand.NewSource(seed ^ 0x5EED)),
		reg:   reg,
	}
	n.plane.Instrument(reg)
	n.prober = probe.New(gen.Top, n.plane, clk, probe.Config{})
	n.prober.Instrument(reg)
	n.converge()
	return n
}

// buildWithOrigin builds an internetwork plus a fresh multihomed origin
// stub attached to `providers` distinct transit ASes — the BGP-Mux
// deployment shape of §5 (one AS, announcements via several university
// muxes).
func buildWithOrigin(seed int64, cfg topogen.Config, providers int, reg *obs.Registry) *net {
	cfg.Seed = seed
	gen, err := topogen.GenerateWithOrigin(cfg, providers)
	if err != nil {
		panic(fmt.Sprintf("experiments: topogen: %v", err))
	}
	clk := simclock.New()
	eng := bgp.New(gen.Top, clk, bgp.Config{Seed: seed, Obs: reg})
	for _, asn := range gen.Top.ASNs() {
		eng.Originate(asn, topo.Block(asn))
	}
	n := &net{
		gen: gen, top: gen.Top, clk: clk, eng: eng,
		plane:  dataplane.New(gen.Top, eng),
		rng:    rand.New(rand.NewSource(seed ^ 0x5EED)),
		reg:    reg,
		origin: gen.Origin,
		muxes:  gen.Top.Providers(gen.Origin),
	}
	n.plane.Instrument(reg)
	n.prober = probe.New(gen.Top, n.plane, clk, probe.Config{})
	n.prober.Instrument(reg)
	n.converge()
	return n
}

// sample returns k distinct elements of xs in deterministic shuffled order.
func sample[T any](rng *rand.Rand, xs []T, k int) []T {
	idx := rng.Perm(len(xs))
	if k > len(xs) {
		k = len(xs)
	}
	out := make([]T, 0, k)
	for _, i := range idx[:k] {
		out = append(out, xs[i])
	}
	return out
}

// transitHops returns the path's transit ASes: everything except the first
// (the viewer's neighbor may be kept via keepFirst=false) and the origin's
// trailing pattern.
func transitHops(p topo.Path) []topo.ASN {
	if len(p) == 0 {
		return nil
	}
	origin := p[len(p)-1]
	var out []topo.ASN
	for _, a := range p {
		if a == origin {
			break
		}
		out = append(out, a)
	}
	return out
}
