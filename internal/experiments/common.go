package experiments

import (
	"fmt"
	"math/rand"

	"lifeguard"
	"lifeguard/internal/bgp"
	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// world generates a synthetic internetwork and assembles a converged
// lifeguard.Network over it, returning it with the trial's sampling rng.
// providers > 0 adds a fresh multihomed origin stub (n.Gen.Origin) attached
// to that many distinct transit ASes — the BGP-Mux deployment shape of §5
// (one AS, announcements via several university muxes). reg, when non-nil,
// instruments every subsystem of the network and of any Session over it.
func world(seed int64, cfg topogen.Config, providers int, bgpCfg bgp.Config, reg *obs.Registry) (*lifeguard.Network, *rand.Rand) {
	cfg.Seed = seed
	var gen *topogen.Result
	var err error
	if providers > 0 {
		gen, err = topogen.GenerateWithOrigin(cfg, providers)
	} else {
		gen, err = topogen.Generate(cfg)
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: topogen: %v", err))
	}
	n, err := lifeguard.AssembleNetwork(gen.Top, lifeguard.NetworkOptions{Seed: seed, BGP: bgpCfg, Obs: reg})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	n.Gen = gen
	return n, rand.New(rand.NewSource(seed ^ 0x5EED))
}

// converge drains the control plane. A trial over a half-converged world
// has no meaningful result, so a blown budget panics instead of reporting.
func converge(n *lifeguard.Network) {
	if !n.Converge() {
		panic("experiments: BGP did not converge")
	}
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

// poisonCandidate is the paper's victim filter for n's origin: any AS but a
// Tier-1 or the origin's first provider (the paper excluded Tier-1s and
// Cogent, its testbed's provider).
func poisonCandidate(n *lifeguard.Network) func(topo.ASN) bool {
	tier1 := make(map[topo.ASN]bool)
	for _, t := range n.Gen.Tier1s {
		tier1[t] = true
	}
	mux := n.Top.Providers(n.Gen.Origin)[0]
	return func(a topo.ASN) bool { return !tier1[a] && a != mux }
}

// transitHops returns the ASes a path crosses before its origin: every hop
// up to the first occurrence of the path's last AS, so the origin's
// trailing pattern (prepends, poisons) is dropped.
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
