package bgp

import (
	"net/netip"
	"testing"

	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// chainNet builds 1 ← 2 ← 3 (1 is a customer of 2, 2 of 3).
func chainNet(t *testing.T) *Engine {
	t.Helper()
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 3; asn++ {
		b.AddAS(asn, "")
	}
	b.Provider(1, 2)
	b.Provider(2, 3)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return New(top, simclock.New(), Config{Seed: 1})
}

// TestLookupShortPrefixes is the regression test for the pre-LPM lookup,
// which scanned candidate lengths /32../8 only: a /7 aggregate or a /0
// default route was installed in the loc-RIB but unreachable by
// longest-prefix match.
func TestLookupShortPrefixes(t *testing.T) {
	e := chainNet(t)
	slash7 := mustPrefix(t, "2.0.0.0/7")
	dflt := mustPrefix(t, "0.0.0.0/0")
	e.Announce(1, slash7, OriginConfig{})
	e.Announce(1, dflt, OriginConfig{})
	if !e.Converge(5_000_000) {
		t.Fatal("no convergence")
	}
	// 3.1.2.3 is inside 2.0.0.0/7; the /7 must win over the /0.
	r, ok := e.Lookup(3, mustAddr(t, "3.1.2.3"))
	if !ok || r.Prefix != slash7 {
		t.Fatalf("Lookup inside /7 = %v, %v; want route for %v", r, ok, slash7)
	}
	// 9.9.9.9 matches only the default route.
	r, ok = e.Lookup(3, mustAddr(t, "9.9.9.9"))
	if !ok || r.Prefix != dflt {
		t.Fatalf("Lookup of default-routed addr = %v, %v; want route for %v", r, ok, dflt)
	}
	// Withdrawing the /7 leaves its addresses on the default route.
	e.Withdraw(1, slash7)
	if !e.Converge(5_000_000) {
		t.Fatal("no convergence after withdraw")
	}
	r, ok = e.Lookup(3, mustAddr(t, "3.1.2.3"))
	if !ok || r.Prefix != dflt {
		t.Fatalf("Lookup after /7 withdrawal = %v, %v; want default route", r, ok)
	}
}

func TestLookupLongestMatchAndMisses(t *testing.T) {
	e := chainNet(t)
	block := topo.Block(1)             // 1.1.0.0/16
	prod := topo.ProductionPrefix(1)   // 1.1.240.0/24
	sentinel := topo.SentinelPrefix(1) // 1.1.240.0/23
	host := mustPrefix(t, "1.1.240.9/32")
	for _, p := range []netip.Prefix{block, prod, sentinel, host} {
		e.Announce(1, p, OriginConfig{})
	}
	if !e.Converge(5_000_000) {
		t.Fatal("no convergence")
	}
	cases := []struct {
		addr string
		want netip.Prefix
	}{
		{"1.1.240.9", host},     // /32 host route wins
		{"1.1.240.1", prod},     // /24 beats the /23 and /16
		{"1.1.241.7", sentinel}, // sentinel half: /23 beats /16
		{"1.1.9.9", block},      // block only
	}
	for _, c := range cases {
		r, ok := e.Lookup(3, mustAddr(t, c.addr))
		if !ok || r.Prefix != c.want {
			t.Errorf("Lookup(%s): got %v, %v; want %v", c.addr, r, ok, c.want)
		}
	}
	if _, ok := e.Lookup(3, mustAddr(t, "5.5.5.5")); ok {
		t.Error("Lookup of uncovered addr should miss")
	}
	// 4-in-6 mapped forms of IPv4 addresses match their IPv4 routes.
	if r, ok := e.Lookup(3, mustAddr(t, "::ffff:1.1.240.1")); !ok || r.Prefix != prod {
		t.Errorf("Lookup of 4-in-6 mapped addr = %v, %v; want %v", r, ok, prod)
	}
	// Real IPv6 has no routes in the IPv4-only address plan.
	if _, ok := e.Lookup(3, mustAddr(t, "2001:db8::1")); ok {
		t.Error("Lookup of IPv6 addr should miss")
	}
	// Unknown AS has no RIB at all.
	if _, ok := e.Lookup(99, mustAddr(t, "1.1.9.9")); ok {
		t.Error("Lookup at unknown AS should miss")
	}
}

// TestLPMIndexPruning exercises the trie's node recycling directly: a
// withdraw returns the route's exclusive tail to the free list, and a
// re-announce reuses it without growing the slab.
func TestLPMIndexPruning(t *testing.T) {
	var x lpmIndex
	p := netip.MustParsePrefix("10.0.0.0/24")
	q := netip.MustParsePrefix("10.0.0.0/8")
	const ip, iq prefixID = 1, 2
	x.insert(p, ip)
	x.insert(q, iq)
	if x.len != 2 {
		t.Fatalf("len = %d, want 2", x.len)
	}
	key, _ := v4Key(netip.MustParseAddr("10.0.0.1"))
	if got := x.lookup(key); got != ip {
		t.Fatalf("lookup = %v, want the /24's id", got)
	}
	x.remove(p)
	if got := x.lookup(key); got != iq {
		t.Fatalf("lookup after /24 removal = %v, want the /8's id", got)
	}
	// The /24's sixteen exclusive nodes (depths 9..24) were recycled.
	if len(x.free) != 16 {
		t.Fatalf("free list has %d nodes after prune, want 16", len(x.free))
	}
	x.insert(p, ip)
	if len(x.free) != 0 {
		t.Fatalf("free list has %d nodes after re-insert, want 0 (reused)", len(x.free))
	}
	x.remove(q)
	x.remove(p)
	if x.len != 0 {
		t.Fatalf("len = %d after removing all, want 0", x.len)
	}
	if got := x.lookup(key); got != 0 {
		t.Fatalf("lookup on empty index = %v, want 0", got)
	}
	// Removing an absent prefix is a no-op.
	x.remove(p)
	if x.len != 0 {
		t.Fatalf("len = %d after redundant remove, want 0", x.len)
	}
}
