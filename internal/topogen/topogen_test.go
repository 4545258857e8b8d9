package topogen

import (
	"strings"
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/nettest"
	"lifeguard/internal/simclock"
	"lifeguard/internal/splice"
	"lifeguard/internal/topo"
)

func TestGenerateCountsAndTiers(t *testing.T) {
	res, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tier1s) != 5 || len(res.Transit) != 40 || len(res.Stubs) != 150 {
		t.Fatalf("sizes = %d/%d/%d", len(res.Tier1s), len(res.Transit), len(res.Stubs))
	}
	if res.Top.NumASes() != 195 {
		t.Fatalf("NumASes = %d", res.Top.NumASes())
	}
	for _, asn := range res.Tier1s {
		as := res.Top.AS(asn)
		if as.Tier != 1 {
			t.Fatalf("tier1 %d misconfigured: %+v", asn, as)
		}
		if len(res.Top.Providers(asn)) != 0 {
			t.Fatalf("tier1 %d has providers", asn)
		}
	}
	for _, asn := range res.Stubs {
		if got := len(res.Top.Customers(asn)); got != 0 {
			t.Fatalf("stub %d has %d customers", asn, got)
		}
		np := len(res.Top.Providers(asn))
		if np < 1 || np > 2 {
			t.Fatalf("stub %d has %d providers", asn, np)
		}
	}
}

func TestTier1Clique(t *testing.T) {
	res, err := Generate(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Tier1s {
		for j, b := range res.Tier1s {
			if i == j {
				continue
			}
			if res.Top.Rel(a, b) != topo.RelPeer {
				t.Fatalf("tier1 %d-%d not peering", a, b)
			}
		}
	}
}

func TestUniversalReachability(t *testing.T) {
	// Every AS must have a valley-free path to every stub: the provider
	// hierarchy tops out at the clique.
	res, err := Generate(Config{Seed: 3, NumTransit: 20, NumStub: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, origin := range []topo.ASN{res.Stubs[0], res.Stubs[len(res.Stubs)-1], res.Transit[0]} {
		r := splice.Reach(res.Top, origin, nil)
		if len(r) != res.Top.NumASes() {
			t.Fatalf("origin %d reaches only %d/%d ASes", origin, len(r), res.Top.NumASes())
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Top.NumRouters() != b.Top.NumRouters() {
		t.Fatalf("router counts differ: %d vs %d", a.Top.NumRouters(), b.Top.NumRouters())
	}
	for _, asn := range a.Top.ASNs() {
		na, nb := a.Top.Neighbors(asn), b.Top.Neighbors(asn)
		if len(na) != len(nb) {
			t.Fatalf("AS %d neighbors differ", asn)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("AS %d neighbor %d differs", asn, i)
			}
		}
	}
}

func TestEveryASHasRouters(t *testing.T) {
	res, err := Generate(Config{Seed: 4, NumTransit: 10, NumStub: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range res.Top.ASNs() {
		if len(res.Top.AS(asn).Routers) == 0 {
			t.Fatalf("AS %d has no routers", asn)
		}
	}
	if len(res.AllASNs()) != res.Top.NumASes() {
		t.Fatal("AllASNs incomplete")
	}
}

func TestGeneratedTopologyConvergesUnderBGP(t *testing.T) {
	res, err := Generate(Config{Seed: 5, NumTransit: 15, NumStub: 40})
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	e := bgp.New(res.Top, clk, bgp.Config{Seed: 5})
	origin := res.Stubs[0]
	e.Originate(origin, topo.ProductionPrefix(origin))
	if !e.Converge(20_000_000) {
		t.Fatal("generated topology did not converge")
	}
	// Every AS should have the route (universal reachability).
	for _, asn := range res.Top.ASNs() {
		if _, ok := e.BestRoute(asn, topo.ProductionPrefix(origin)); !ok {
			t.Fatalf("AS %d has no route to stub origin", asn)
		}
	}
}

func TestMultihomingFractionRoughlyMatches(t *testing.T) {
	res, err := Generate(Config{Seed: 6, NumStub: 400})
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, s := range res.Stubs {
		if len(res.Top.Providers(s)) == 2 {
			multi++
		}
	}
	f := float64(multi) / float64(len(res.Stubs))
	if f < 0.40 || f > 0.70 {
		t.Fatalf("multihomed stub fraction = %.2f, want ~0.55", f)
	}
}

// TestProviderHierarchyAcyclic: topo.Builder.Build rejects a customer→
// provider cycle, the precondition of refsolve's one answer, and both
// generators at the sizes the repository builds (the loc-RIB oracle's 25
// ASes, -exp baselines' 110, the default 195, and 1k with and without
// Large) get past it, as do the hand-built Fig. 2 and Fig. 4 worlds.
func TestProviderHierarchyAcyclic(t *testing.T) {
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 4; asn++ {
		b.AddAS(asn, "")
	}
	b.Provider(4, 1)
	b.Provider(1, 2)
	b.Provider(2, 3)
	b.Provider(3, 1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "customer→provider cycle at or above AS 1") {
		t.Errorf("Build of a 3-AS provider cycle: err = %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"25", Config{Seed: 5, NumTier1: 3, NumTransit: 8, NumStub: 14, TransitPeerProb: 0.2}},
		{"110", Config{Seed: 1, NumTransit: 25, NumStub: 80, TransitPeerProb: 0.10, StubMultihomeProb: 0.65}},
		{"195", Config{Seed: 1}},
		{"1k", Config{Seed: 1, NumTransit: 200, NumStub: 795}},
		{"1k-large", Config{Seed: 1, NumTransit: 200, NumStub: 795, Large: true}},
	}
	for _, c := range cases {
		if _, err := Generate(c.cfg); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	nettest.Fig2(t)
	nettest.Fig4(t)
}
