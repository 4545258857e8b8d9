package bgp

import (
	"net/netip"
	"testing"

	"lifeguard/internal/topo"
)

// TestAnnounceErrContract pins the error cases of the non-panicking API:
// unknown AS, unusable prefixes (the loc-RIB keys by masked IPv4 form),
// patterns violating the §3.1.1 origin conventions — for Pattern and for
// every PerNeighbor override — and a nil PerNeighbor path, which the
// OriginConfig doc calls invalid. A failed call installs nothing.
func TestAnnounceErrContract(t *testing.T) {
	e, _ := newEngine(t, lineTopo(t))
	good := topo.ProductionPrefix(1)
	if err := e.AnnounceErr(1, good, OriginConfig{}); err != nil {
		t.Fatalf("valid announce: %v", err)
	}
	cases := []struct {
		name   string
		asn    topo.ASN
		prefix netip.Prefix
		cfg    OriginConfig
	}{
		{"unknown AS", 99, good, OriginConfig{}},
		{"zero prefix", 1, netip.Prefix{}, OriginConfig{}},
		{"IPv6 prefix", 1, netip.MustParsePrefix("2001:db8::/32"), OriginConfig{}},
		{"host bits set", 1, netip.MustParsePrefix("9.9.9.9/24"), OriginConfig{}},
		{"bad pattern", 1, good, OriginConfig{Pattern: topo.Path{2, 1}}},
		{"bad per-neighbor pattern", 1, good,
			OriginConfig{PerNeighbor: map[topo.ASN]topo.Path{2: {1, 2}}}},
		{"nil per-neighbor path", 1, good,
			OriginConfig{PerNeighbor: map[topo.ASN]topo.Path{2: nil}}},
	}
	for _, c := range cases {
		if err := e.AnnounceErr(c.asn, c.prefix, c.cfg); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	converge(t, e)
	if _, ok := e.BestRoute(1, netip.MustParsePrefix("9.9.0.0/24")); ok {
		t.Error("rejected announcement was installed")
	}
}

// TestWithdrawErrContract: an unknown AS is an error (the panicking
// Withdraw used to no-op silently, hiding typos in experiment scripts);
// withdrawing a prefix the AS does not originate stays a harmless no-op.
func TestWithdrawErrContract(t *testing.T) {
	e, _ := newEngine(t, lineTopo(t))
	p := topo.ProductionPrefix(1)
	if err := e.WithdrawErr(99, p); err == nil {
		t.Error("unknown AS: want error")
	}
	if err := e.WithdrawErr(1, p); err != nil {
		t.Errorf("withdrawing a never-announced prefix: %v", err)
	}
	e.Announce(1, p, OriginConfig{})
	converge(t, e)
	if err := e.WithdrawErr(1, p); err != nil {
		t.Fatalf("withdraw: %v", err)
	}
	converge(t, e)
	if _, ok := e.BestRoute(2, p); ok {
		t.Error("route survived withdrawal")
	}
}

// TestAnnounceWithdrawPanicOnError: the convenience wrappers surface every
// AnnounceErr/WithdrawErr failure as a panic.
func TestAnnounceWithdrawPanicOnError(t *testing.T) {
	e, _ := newEngine(t, lineTopo(t))
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("Announce to unknown AS", func() {
		e.Announce(99, topo.ProductionPrefix(1), OriginConfig{})
	})
	mustPanic("Announce with host bits", func() {
		e.Announce(1, netip.MustParsePrefix("9.9.9.9/24"), OriginConfig{})
	})
	mustPanic("Withdraw from unknown AS", func() {
		e.Withdraw(99, topo.ProductionPrefix(1))
	})
}

// TestAnnounceConfigSanitized: the config is deep-copied at the Announce
// boundary, so a caller mutating its maps and slices afterwards cannot
// change what the origin exports.
func TestAnnounceConfigSanitized(t *testing.T) {
	e, _ := newEngine(t, lineTopo(t))
	p := topo.ProductionPrefix(1)
	cfg := OriginConfig{
		Pattern:  topo.Path{1, 9, 1},
		Withhold: map[topo.ASN]bool{},
	}
	e.Announce(1, p, cfg)
	// Corrupt everything the caller still holds.
	cfg.Pattern[1] = 77
	cfg.Withhold[2] = true
	converge(t, e)
	r, ok := e.BestRoute(2, p)
	if !ok {
		t.Fatal("route missing at AS2 (caller's Withhold mutation leaked in)")
	}
	if !r.Path.Equal(topo.Path{1, 9, 1}) {
		t.Fatalf("exported path %v, want the pre-mutation pattern [1 9 1]", r.Path)
	}
}
