package topogen

import (
	"reflect"
	"strings"
	"testing"

	"lifeguard/internal/topo"
)

// TestDefaultProbsSurviveZeroValues: a zero-valued probability means
// "default", so a caller that leaves them unset gets the calibrated
// topology byte-for-byte.
func TestDefaultProbsSurviveZeroValues(t *testing.T) {
	zero, err := Generate(Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Generate(Config{
		Seed:                     8,
		TransitExtraProviderProb: 0.5,
		StubMultihomeProb:        0.55,
		TransitPeerProb:          0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero.Top, explicit.Top) {
		t.Fatal("zero-valued probabilities no longer mean the defaults")
	}
	multi := 0
	for _, s := range zero.Stubs {
		if len(zero.Top.Providers(s)) == 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("default config produced no multihomed stubs")
	}
}

// TestDegenerateConfigSurfacesError: a config whose provider pools come up
// empty must produce a diagnosable error from Generate, not the old
// "topo: relate unknown AS 0" panic from pickWeighted's 0 sentinel flowing
// into the builder.
func TestDegenerateConfigSurfacesError(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 1, NumTier1: -1},                 // no clique: transits have no provider pool
		{Seed: 1, NumTier1: -1, NumTransit: -1}, // stubs have no provider pool either
		{Seed: 1, NumTier1: -1, Large: true},    // same failure through the large-mode generator
	} {
		_, err := Generate(cfg)
		if err == nil {
			t.Fatalf("Generate(%+v) succeeded, want error", cfg)
		}
		if !strings.Contains(err.Error(), "no provider candidate") {
			t.Fatalf("Generate(%+v) error = %q, want a 'no provider candidate' diagnosis", cfg, err)
		}
	}
}

// checkInternetInvariants asserts the structural properties every generated
// internetwork must satisfy, and that generation is deterministic.
func checkInternetInvariants(t *testing.T, cfg Config) *Result {
	t.Helper()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Generate calls with one config are not identical")
	}
	// Every non-tier1 AS has at least one provider (the hierarchy tops out
	// at the clique, which is what makes universal valley-free reachability
	// possible).
	for _, asn := range a.Transit {
		if len(a.Top.Providers(asn)) < 1 {
			t.Fatalf("transit %d has no provider", asn)
		}
	}
	for _, asn := range a.Stubs {
		np := len(a.Top.Providers(asn))
		if np < 1 || np > 2 {
			t.Fatalf("stub %d has %d providers", asn, np)
		}
	}
	// The AS graph is connected: BFS from one tier-1 reaches everyone.
	seen := make(map[topo.ASN]bool, a.Top.NumASes())
	queue := []topo.ASN{a.Tier1s[0]}
	seen[a.Tier1s[0]] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range a.Top.Neighbors(cur) {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	if len(seen) != a.Top.NumASes() {
		t.Fatalf("AS graph disconnected: reached %d of %d", len(seen), a.Top.NumASes())
	}
	return a
}

func TestLargeMode2kProperties(t *testing.T) {
	res := checkInternetInvariants(t, Config{
		Seed:       21,
		Large:      true,
		NumTier1:   10,
		NumTransit: 400,
		NumStub:    1590,
	})
	if res.Top.NumASes() != 2000 {
		t.Fatalf("NumASes = %d, want 2000", res.Top.NumASes())
	}
}

func TestLargeMode10kProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-AS generation in -short mode")
	}
	res := checkInternetInvariants(t, Config{
		Seed:       22,
		Large:      true,
		NumTier1:   20,
		NumTransit: 2000,
		NumStub:    7980,
	})
	if res.Top.NumASes() != 10000 {
		t.Fatalf("NumASes = %d, want 10000", res.Top.NumASes())
	}
}

// TestLargeModeTransitPeering: the large generator draws a binomial
// *number* of transit peerings instead of flipping every pair; the realized
// count must still land near p·T·(T-1)/2.
func TestLargeModeTransitPeering(t *testing.T) {
	res, err := Generate(Config{
		Seed:       23,
		Large:      true,
		NumTier1:   5,
		NumTransit: 200,
		NumStub:    200,
	})
	if err != nil {
		t.Fatal(err)
	}
	peerings := 0
	for i, a := range res.Transit {
		for _, b := range res.Transit[i+1:] {
			if res.Top.Rel(a, b) == topo.RelPeer {
				peerings++
			}
		}
	}
	expected := 0.05 * 200 * 199 / 2 // ≈ 995
	if f := float64(peerings); f < expected*0.5 || f > expected*1.5 {
		t.Fatalf("transit peerings = %d, want ≈ %.0f", peerings, expected)
	}
}

// TestMaxASesValidation: every generated AS owns an address block, so the
// generator must reject configurations that overflow the address plan's
// contiguous ASN range with a clear error (the ASN type itself is 32-bit).
func TestMaxASesValidation(t *testing.T) {
	_, err := Generate(Config{Seed: 1, NumTier1: 10, NumTransit: 30000, NumStub: 40000})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized config error = %v", err)
	}
}
