package topo_test

import (
	"math/rand"
	"slices"
	"testing"

	"lifeguard/internal/nettest"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// TestHierarchyOrder: Hierarchy lists every AS exactly once, each after all
// of its providers, on Fig. 2, topogen worlds of 200 and 1k ASes with and
// without Large, and a random tree whose ASNs are shuffled, so that
// ascending ASN order is not a hierarchy order.
func TestHierarchyOrder(t *testing.T) {
	tops := map[string]*topo.Topology{"Fig. 2": nettest.Fig2(t).Top}
	for name, cfg := range map[string]topogen.Config{
		"topogen 200":      {Seed: 3, NumTransit: 45},
		"topogen 1k":       {Seed: 1, NumTransit: 200, NumStub: 795},
		"topogen 1k Large": {Seed: 1, NumTransit: 200, NumStub: 795, Large: true},
	} {
		gen, err := topogen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tops[name] = gen.Top
	}
	rng := rand.New(rand.NewSource(7))
	asns := make([]topo.ASN, 60) // asns[i] buys transit from ASes before it
	for i := range asns {
		asns[i] = topo.ASN(i + 1)
	}
	rng.Shuffle(len(asns), func(i, j int) { asns[i], asns[j] = asns[j], asns[i] })
	b := topo.NewBuilder()
	for _, a := range asns {
		b.AddAS(a, "")
	}
	for i := 1; i < len(asns); i++ {
		for k := 0; k < 1+rng.Intn(2); k++ {
			if p := asns[rng.Intn(i)]; !b.Related(asns[i], p) {
				b.Provider(asns[i], p)
			}
		}
	}
	shuffled, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(shuffled.Hierarchy(), shuffled.ASNs()) {
		t.Fatal("shuffled tree: ascending ASN order is a hierarchy order; the case tests nothing")
	}
	tops["shuffled tree"] = shuffled

	for name, top := range tops {
		at := map[topo.ASN]int{}
		for i, asn := range top.Hierarchy() {
			if _, dup := at[asn]; dup {
				t.Errorf("%s: AS%d listed twice", name, asn)
			}
			at[asn] = i
		}
		for _, asn := range top.ASNs() {
			i, ok := at[asn]
			if !ok {
				t.Errorf("%s: AS%d missing", name, asn)
			}
			for _, p := range top.Providers(asn) {
				if at[p] >= i {
					t.Errorf("%s: AS%d at %d, its provider AS%d at %d", name, asn, i, p, at[p])
				}
			}
		}
		if len(top.Hierarchy()) != top.NumASes() {
			t.Errorf("%s: %d ASes listed, %d in the topology", name, len(top.Hierarchy()), top.NumASes())
		}
	}
}
