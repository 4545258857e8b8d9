package bgp

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"testing"

	"lifeguard/internal/obs"
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

// TestLPMIndexPruning exercises the trie directly on nested prefixes read
// through a loc-RIB that lacks some of them: a prefix without a route is
// pruned from the match, never from the trie, and the match falls through to
// the deepest covering prefix that has one.
func TestLPMIndexPruning(t *testing.T) {
	var x lpmIndex
	p := netip.MustParsePrefix("10.0.0.0/24")
	q := netip.MustParsePrefix("10.0.0.0/8")
	const ip, iq prefixID = 1, 2
	x.insert(p, ip)
	x.insert(q, iq)
	// The /8's eight nodes are the head of the /24's path.
	if x.nodes != 24 {
		t.Fatalf("nodes = %d, want 24", x.nodes)
	}
	inP, _ := v4Key(netip.MustParseAddr("10.0.0.1"))
	inQ, _ := v4Key(netip.MustParseAddr("10.9.0.1"))
	out, _ := v4Key(netip.MustParseAddr("11.0.0.1"))
	routed := locEntry{kind: locLearned}
	cases := []struct {
		name string
		best []locEntry // indexed by prefix id; slot 0 stays empty
		key  uint32
		want prefixID
	}{
		{"both routed, inside the /24", []locEntry{{}, routed, routed}, inP, ip},
		{"both routed, inside the /8 only", []locEntry{{}, routed, routed}, inQ, iq},
		{"both routed, outside both", []locEntry{{}, routed, routed}, out, 0},
		{"/24 has no route: falls through to the /8", []locEntry{{}, {}, routed}, inP, iq},
		{"/8 has no route: the /24 still matches", []locEntry{{}, routed, {}}, inP, ip},
		{"/8 has no route: nothing covers the rest of it", []locEntry{{}, routed, {}}, inQ, 0},
		{"neither has a route", []locEntry{{}, {}, {}}, inP, 0},
		{"loc-RIB ends before the /8's id", []locEntry{{}, routed}, inQ, 0},
		{"loc-RIB ends before the /8's id, /24 in reach", []locEntry{{}, routed}, inP, ip},
		{"empty loc-RIB", nil, inP, 0},
	}
	for _, c := range cases {
		if got := x.longest(c.key, c.best); got != c.want {
			t.Errorf("%s: longest = %v, want %v", c.name, got, c.want)
		}
	}
	// Re-inserting an indexed prefix adds no node.
	x.insert(p, ip)
	if x.nodes != 24 {
		t.Fatalf("nodes = %d after re-insert, want 24", x.nodes)
	}
}

// forkNet builds the smallest world in which ASes hold different subsets of
// one prefix set: origin 1 is a customer of 2 and of 4, which share nothing
// else; 3 is single-homed behind 2 (its captive once 2 is poisoned) and 6
// behind 4.
func forkNet(t *testing.T) *Engine {
	t.Helper()
	b := topo.NewBuilder()
	for _, asn := range []topo.ASN{1, 2, 3, 4, 6} {
		b.AddAS(asn, "")
	}
	b.Provider(1, 2)
	b.Provider(1, 4)
	b.Provider(3, 2)
	b.Provider(6, 4)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return New(top, simclock.New(), Config{Seed: 1})
}

// TestLookupFallsThroughWhatThisASLacks pins the one thing Lookup adds to
// the engine-wide trie: which of the prefixes on the way down count is the
// asking speaker's business. Every answer is also held to bruteLookup.
func TestLookupFallsThroughWhatThisASLacks(t *testing.T) {
	var none netip.Prefix
	// expect asserts Lookup(asn, addr) matches want (none: no route).
	expect := func(t *testing.T, e *Engine, asn topo.ASN, addr netip.Addr, want netip.Prefix) {
		t.Helper()
		got, ok := e.Lookup(asn, addr)
		if brute := bruteLookup(e.Speaker(asn), addr); got != brute {
			t.Errorf("AS%d Lookup(%v) = %v; brute force says %v", asn, addr, got, brute)
		}
		switch {
		case want == none && ok:
			t.Errorf("AS%d Lookup(%v) = %v; want no route", asn, addr, got.Prefix)
		case want != none && (!ok || got.Prefix != want):
			t.Errorf("AS%d Lookup(%v) = %v, %v; want %v", asn, addr, got, ok, want)
		}
	}
	prod, sentinel, addr := topo.ProductionPrefix(1), topo.SentinelPrefix(1), topo.ProductionAddr(1)

	t.Run("captive falls through to the sentinel", func(t *testing.T) {
		e := forkNet(t)
		e.Announce(1, sentinel, OriginConfig{})
		e.Announce(1, prod, OriginConfig{Pattern: topo.Path{1, 1, 1}})
		converge(t, e)
		for _, asn := range e.top.ASNs() {
			expect(t, e, asn, addr, prod)
		}
		// Poisoning 2 takes the /24 from 2 and its captive 3, nobody else.
		e.Announce(1, prod, OriginConfig{Pattern: topo.Path{1, 2, 1}})
		converge(t, e)
		for _, asn := range []topo.ASN{2, 3} {
			expect(t, e, asn, addr, sentinel)
		}
		for _, asn := range []topo.ASN{1, 4, 6} {
			expect(t, e, asn, addr, prod)
		}
	})

	t.Run("selective more-specific matches only where it arrived", func(t *testing.T) {
		e := forkNet(t)
		half := netip.PrefixFrom(prod.Addr(), 25)
		e.Announce(1, prod, OriginConfig{})
		e.Announce(1, half, OriginConfig{Withhold: map[topo.ASN]bool{2: true}})
		converge(t, e)
		for _, asn := range []topo.ASN{1, 4, 6} {
			expect(t, e, asn, addr, half)
		}
		for _, asn := range []topo.ASN{2, 3} {
			expect(t, e, asn, addr, prod)
		}
	})

	t.Run("withdrawn everywhere stays in the trie and is skipped", func(t *testing.T) {
		e := forkNet(t)
		e.Announce(1, sentinel, OriginConfig{})
		e.Announce(1, prod, OriginConfig{})
		converge(t, e)
		e.Withdraw(1, prod)
		converge(t, e)
		if _, ok := e.prefixes.lookup(prod); !ok {
			t.Fatal("the prefix table un-interned a prefix")
		}
		for _, asn := range e.top.ASNs() {
			expect(t, e, asn, addr, sentinel)
		}
		e.Withdraw(1, sentinel)
		converge(t, e)
		for _, asn := range e.top.ASNs() {
			expect(t, e, asn, addr, none)
		}
	})

	t.Run("loc-RIB shorter than the prefix table", func(t *testing.T) {
		e := forkNet(t)
		// Announced, nothing delivered: only the origin's loc-RIB has grown.
		e.Announce(1, sentinel, OriginConfig{})
		if s := e.Speaker(3); len(s.best) != 0 {
			t.Fatalf("AS3 loc-RIB has %d slots before any update arrived", len(s.best))
		}
		expect(t, e, 1, addr, sentinel)
		expect(t, e, 3, addr, none)
		converge(t, e)
		// A second, deeper prefix the others have not heard of yet: its id
		// lies past the end of their loc-RIBs.
		e.Announce(1, prod, OriginConfig{})
		if s := e.Speaker(3); len(s.best) >= e.prefixes.size() {
			t.Fatalf("AS3 loc-RIB has %d slots, prefix table %d: want it shorter", len(s.best), e.prefixes.size())
		}
		expect(t, e, 1, addr, prod)
		for _, asn := range []topo.ASN{2, 3, 4, 6} {
			expect(t, e, asn, addr, sentinel)
		}
	})

	t.Run("default route at the root", func(t *testing.T) {
		e := forkNet(t)
		dflt := netip.MustParsePrefix("0.0.0.0/0")
		e.Announce(1, dflt, OriginConfig{Withhold: map[topo.ASN]bool{4: true}})
		converge(t, e)
		far := netip.MustParseAddr("203.0.113.9")
		for _, asn := range []topo.ASN{1, 2, 3} {
			expect(t, e, asn, far, dflt)
			expect(t, e, asn, addr, dflt)
		}
		for _, asn := range []topo.ASN{4, 6} {
			expect(t, e, asn, far, none)
		}
	})
}

// countNodes counts the trie nodes below n by walking them.
func countNodes(n *lpmNode) int {
	total := 0
	for _, c := range n.child {
		if c != nil {
			total += 1 + countNodes(c)
		}
	}
	return total
}

// TestLPMNodesGaugeIsTheOneTrie holds lifeguard_bgp_lpm_nodes to the
// engine's one trie: after every step of a fill, a poison cycle and a
// withdrawal it equals the trie's node count (counted here by walking it), it
// reads the same whether or not anybody ever called Lookup — nothing is
// compiled on first use — and a run with the registry on produces the update
// stream, byte for byte, of the same run without one.
func TestLPMNodesGaugeIsTheOneTrie(t *testing.T) {
	gen := hundredASTopo(t)
	run := func(reg *obs.Registry, lookups bool) (gauge []int64, digest uint64) {
		e := New(gen.Top, simclock.New(), Config{Seed: 11, Obs: reg})
		h := fnv.New64a()
		e.OnBestChange = func(c BestChange) {
			fmt.Fprintf(h, "%d AS%d %v %v\n", c.At, c.AS, c.Prefix, c.Path)
		}
		step := func() {
			t.Helper()
			converge(t, e)
			if lookups {
				for _, asn := range gen.Top.ASNs() {
					for _, o := range gen.Stubs[:4] {
						r, _ := e.Lookup(asn, topo.ProductionAddr(o))
						fmt.Fprintf(h, "AS%d -> %v\n", asn, r)
					}
				}
			}
			if want := countNodes(&e.prefixes.cover.root); e.prefixes.cover.nodes != want {
				t.Fatalf("trie says %d nodes, walking it finds %d", e.prefixes.cover.nodes, want)
			}
			if reg != nil && e.obs.lpmNodes.Value() != int64(e.prefixes.cover.nodes) {
				t.Fatalf("gauge reads %d, the trie has %d nodes", e.obs.lpmNodes.Value(), e.prefixes.cover.nodes)
			}
			gauge = append(gauge, e.obs.lpmNodes.Value())
			fmt.Fprintf(h, "sent=%d\n", e.TotalUpdatesSent())
		}
		step() // empty table
		for _, o := range gen.Stubs[:4] {
			e.Announce(o, topo.SentinelPrefix(o), OriginConfig{})
			e.Announce(o, topo.ProductionPrefix(o), OriginConfig{Pattern: topo.Path{o, o, o}})
			step()
		}
		o, pfx := gen.Stubs[0], topo.ProductionPrefix(gen.Stubs[0])
		e.Announce(o, pfx, OriginConfig{Pattern: topo.Path{o, gen.Transit[0], o}})
		step()
		e.Announce(o, pfx, OriginConfig{Pattern: topo.Path{o, o, o}})
		step()
		e.Withdraw(o, pfx) // routed nowhere, still interned: the gauge stays
		step()
		return gauge, h.Sum64()
	}
	read, readDigest := run(obs.New(), true)
	unread, _ := run(obs.New(), false)
	if fmt.Sprint(read) != fmt.Sprint(unread) {
		t.Errorf("gauge with Lookups %v, without %v", read, unread)
	}
	if read[0] != 0 || read[len(read)-1] <= read[1] || read[len(read)-1] != read[len(read)-2] {
		t.Errorf("gauge %v: want 0 on an empty table, growth through the fill, no change at the withdrawal", read)
	}
	if _, dark := run(nil, true); dark != readDigest {
		t.Errorf("stream digest %#x with the registry on, %#x with it off", readDigest, dark)
	}
}
