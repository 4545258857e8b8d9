package topo

import (
	"slices"
	"testing"
	"testing/quick"
)

// build3 returns a tiny stub-transit-stub topology:
// AS1 (stub) --provider--> AS2 (transit) <--provider-- AS3 (stub)
func build3(t *testing.T) *Topology {
	t.Helper()
	b := NewBuilder()
	b.AddAS(1, "one")
	b.AddAS(2, "two").Tier = 2
	b.AddAS(3, "three")
	b.AddRouter(1, "")
	b.AddRouter(2, "")
	b.AddRouter(3, "")
	b.Provider(1, 2)
	b.Provider(3, 2)
	b.ConnectAS(1, 2)
	b.ConnectAS(3, 2)
	top, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return top
}

func TestRelSymmetry(t *testing.T) {
	top := build3(t)
	if top.Rel(1, 2) != RelProvider {
		t.Fatalf("Rel(1,2) = %v, want provider", top.Rel(1, 2))
	}
	if top.Rel(2, 1) != RelCustomer {
		t.Fatalf("Rel(2,1) = %v, want customer", top.Rel(2, 1))
	}
	if top.Rel(1, 3) != RelNone {
		t.Fatalf("Rel(1,3) = %v, want none", top.Rel(1, 3))
	}
}

func TestNeighborsAndRoleLists(t *testing.T) {
	top := build3(t)
	if n := top.Neighbors(2); len(n) != 2 || n[0] != 1 || n[1] != 3 {
		t.Fatalf("Neighbors(2) = %v", n)
	}
	if c := top.Customers(2); len(c) != 2 {
		t.Fatalf("Customers(2) = %v", c)
	}
	if p := top.Providers(1); len(p) != 1 || p[0] != 2 {
		t.Fatalf("Providers(1) = %v", p)
	}
	if p := top.Peers(1); len(p) != 0 {
		t.Fatalf("Peers(1) = %v", p)
	}
}

// TestRoleListsSurviveAppend holds Neighbors/Customers/Providers/Peers to
// their contract now that they return the topology's own rows: a caller that
// appends to one call's result must not change what any later call returns,
// for the same AS or the one stored after it.
func TestRoleListsSurviveAppend(t *testing.T) {
	b := NewBuilder()
	for asn := ASN(1); asn <= 6; asn++ {
		b.AddAS(asn, "")
	}
	b.Provider(2, 1) // 1's customers: 2, 3
	b.Provider(3, 1)
	b.Peer(1, 4) // 1's peers: 4, 5
	b.Peer(1, 5)
	b.Provider(1, 6) // 1's provider: 6
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lists := map[string]func(ASN) []ASN{"Neighbors": top.Neighbors, "Customers": top.Customers, "Peers": top.Peers, "Providers": top.Providers}
	want := map[string][]ASN{"Neighbors": {2, 3, 4, 5, 6}, "Customers": {2, 3}, "Peers": {4, 5}, "Providers": {6}}
	before := map[string][][]ASN{} // every list of every AS
	for name, l := range lists {
		for _, asn := range top.ASNs() {
			before[name] = append(before[name], slices.Clone(l(asn)))
		}
	}
	for name, list := range lists {
		got := list(1)
		if !slices.Equal(got, want[name]) {
			t.Fatalf("%s(1) = %v, want %v", name, got, want[name])
		}
		_ = append(got, 99)
		for other, l := range lists {
			for i, asn := range top.ASNs() {
				if again := l(asn); !slices.Equal(again, before[other][i]) {
					t.Errorf("after append to %s(1): %s(%d) = %v, want %v", name, other, asn, again, before[other][i])
				}
			}
		}
	}
	if top.Peers(2) != nil || top.Customers(7) != nil {
		t.Errorf("an empty role list should be nil: Peers(2) = %v, Customers(7) = %v", top.Peers(2), top.Customers(7))
	}
}

// TestIndexOverGappedASNs holds the dense index on a world whose ASNs are
// neither consecutive nor added in order, one of them above MaxASN: Index
// inverts ASNs(), an AS the topology lacks is reported absent, both rows of
// every edge agree on its relationship, and reading the index allocates
// nothing.
func TestIndexOverGappedASNs(t *testing.T) {
	b := NewBuilder()
	for _, asn := range []ASN{7018, 3, 174, 4_200_000_000, 65000, 40, 3356} {
		b.AddAS(asn, "")
	}
	b.Peer(174, 3356)
	b.Peer(3356, 7018)
	b.Provider(3, 174)
	b.Provider(40, 174)
	b.Provider(40, 3356)
	b.Provider(65000, 7018)
	b.Provider(65000, 40)
	b.Provider(4_200_000_000, 3356) // above MaxASN: no address block, but it routes
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range top.ASNs() {
		if j, ok := top.Index(asn); !ok || j != i {
			t.Errorf("Index(%d) = %d, %v; want %d, true", asn, j, ok, i)
		}
	}
	for _, asn := range []ASN{0, 4, 175, 1001, 3357, 65001, 1 << 31} {
		if i, ok := top.Index(asn); ok {
			t.Errorf("Index(%d) = %d, true for an AS the topology lacks", asn, i)
		}
	}
	edges := 0
	for _, a := range top.ASNs() {
		for j, n := range top.Neighbors(a) {
			if r := top.Rel(a, n); r == RelNone || r != top.Rel(n, a).Invert() {
				t.Errorf("Rel(%d, %d) = %v, Rel(%d, %d) = %v", a, n, r, n, a, top.Rel(n, a))
			}
			if k := top.NeighborIndex(a, n); k != j {
				t.Errorf("NeighborIndex(%d, %d) = %d, want %d", a, n, k, j)
			}
			edges++
		}
	}
	if edges != 2*8 || top.Rel(40, 3356) != RelProvider || top.Rel(3, 40) != RelNone || top.NeighborIndex(3, 40) != -1 {
		t.Errorf("%d edge ends, want 16; Rel(40, 3356) = %v, Rel(3, 40) = %v, NeighborIndex(3, 40) = %d",
			edges, top.Rel(40, 3356), top.Rel(3, 40), top.NeighborIndex(3, 40))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, a := range top.ASNs() {
			top.Index(a)
			for _, n := range top.Neighbors(a) {
				top.Rel(a, n)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Index, Neighbors and Rel allocate %v objects per sweep, want 0", allocs)
	}
}

func TestBorderLinks(t *testing.T) {
	top := build3(t)
	br := top.BorderRouters(1, 2)
	if len(br) != 1 {
		t.Fatalf("BorderRouters(1,2) = %v", br)
	}
	if top.Router(br[0][0]).AS != 1 || top.Router(br[0][1]).AS != 2 {
		t.Fatalf("BorderRouters order wrong: %v", br)
	}
	// Symmetric call flips the pair.
	if br2 := top.BorderRouters(2, 1); len(br2) != 1 || br2[0] != [2]RouterID{br[0][1], br[0][0]} {
		t.Fatalf("BorderRouters(2,1) = %v, want %v flipped", br2, br)
	}
	if br := top.BorderRouters(1, 3); br != nil {
		t.Fatalf("BorderRouters(1,3) = %v for ASes that are not adjacent", br)
	}
}

func TestAddrPlanRoundTrip(t *testing.T) {
	for _, asn := range []ASN{0, 1, 255, 256, 5000, MaxASN} {
		blk := Block(asn)
		if got, ok := OwnerOf(blk.Addr()); !ok || got != asn {
			t.Fatalf("OwnerOf(Block(%d)) = %v, %v", asn, got, ok)
		}
		if !blk.Contains(RouterAddr(asn, 7)) {
			t.Fatalf("router addr outside block for AS %d", asn)
		}
		if !SentinelPrefix(asn).Contains(ProductionAddr(asn)) {
			t.Fatalf("sentinel does not contain production for AS %d", asn)
		}
		if !SentinelPrefix(asn).Contains(SentinelProbeAddr(asn)) {
			t.Fatalf("sentinel does not contain probe addr for AS %d", asn)
		}
		if ProductionPrefix(asn).Contains(SentinelProbeAddr(asn)) {
			t.Fatalf("probe addr must be outside production prefix for AS %d", asn)
		}
		if ProductionPrefix(asn).Bits() != 24 || SentinelPrefix(asn).Bits() != 23 {
			t.Fatal("prefix lengths wrong")
		}
	}
}

func TestAddrPlanDisjointAcrossASes(t *testing.T) {
	f := func(a, b ASN) bool {
		a, b = a%(MaxASN+1), b%(MaxASN+1)
		if a == b {
			return true
		}
		return !Block(a).Overlaps(Block(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouterByAddr(t *testing.T) {
	top := build3(t)
	r0 := top.Router(0)
	got, ok := top.RouterByAddr(r0.Addr)
	if !ok || got.ID != 0 {
		t.Fatalf("RouterByAddr(%v) = %v, %v", r0.Addr, got, ok)
	}
	if _, ok := top.RouterByAddr(ProductionAddr(1)); ok {
		t.Fatal("production addr should not resolve to a router")
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{3356, 174, 7018}
	if !p.Contains(174) || p.Contains(1) {
		t.Fatal("Contains wrong")
	}
	if p.Count(3356) != 1 {
		t.Fatal("Count wrong")
	}
	o, ok := p.Origin()
	if !ok || o != 7018 {
		t.Fatalf("Origin = %v, %v", o, ok)
	}
	if _, ok := Path(nil).Origin(); ok {
		t.Fatal("empty path Origin should be false")
	}
	q := p.Prepend(1)
	if len(q) != 4 || q[0] != 1 || !q[1:].Equal(p) {
		t.Fatalf("Prepend = %v", q)
	}
	if p.String() != "3356 174 7018" {
		t.Fatalf("String = %q", p.String())
	}
	c := p.Clone()
	c[0] = 9
	if p[0] == 9 {
		t.Fatal("Clone aliases original")
	}
}

func TestRelInvert(t *testing.T) {
	if RelCustomer.Invert() != RelProvider || RelProvider.Invert() != RelCustomer {
		t.Fatal("customer/provider inversion wrong")
	}
	if RelPeer.Invert() != RelPeer || RelNone.Invert() != RelNone {
		t.Fatal("peer/none inversion wrong")
	}
}

func TestBuildRejectsLinkWithoutRelationship(t *testing.T) {
	b := NewBuilder()
	b.AddAS(1, "")
	b.AddAS(2, "")
	r1 := b.AddRouter(1, "")
	r2 := b.AddRouter(2, "")
	b.ConnectRouters(r1, r2)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build should reject inter-AS link without relationship")
	}
}

func TestBuildRejectsRelationshipWithoutLink(t *testing.T) {
	b := NewBuilder()
	b.AddAS(1, "")
	b.AddAS(2, "")
	b.AddRouter(1, "")
	b.AddRouter(2, "")
	b.Provider(1, 2)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build should reject routerful relationship without border link")
	}
}

func TestBuildAllowsPureASLevel(t *testing.T) {
	// ASes without routers can be related without border links
	// (control-plane-only studies).
	b := NewBuilder()
	b.AddAS(1, "")
	b.AddAS(2, "")
	b.Provider(1, 2)
	if _, err := b.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
}

func TestBuildRejectsDisconnectedIntraAS(t *testing.T) {
	b := NewBuilder()
	b.AddAS(1, "")
	b.AddRouter(1, "")
	b.AddRouter(1, "") // never linked to the first
	if _, err := b.Build(); err == nil {
		t.Fatal("Build should reject disconnected intra-AS graph")
	}
}

func TestBuilderPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	b := NewBuilder()
	b.AddAS(1, "")
	expectPanic("dup AS", func() { b.AddAS(1, "") })
	expectPanic("unknown AS router", func() { b.AddRouter(9, "") })
	expectPanic("self relation", func() { b.Peer(1, 1) })
	expectPanic("unknown relation", func() { b.Provider(1, 9) })
	r := b.AddRouter(1, "")
	expectPanic("self link", func() { b.ConnectRouters(r, r) })
	b2 := NewBuilder()
	b2.AddAS(1, "")
	b2.AddAS(2, "")
	b2.Peer(1, 2)
	expectPanic("conflicting rel", func() { b2.Provider(1, 2) })
}

func TestConnectASCreatesIntraLinks(t *testing.T) {
	top := build3(t)
	// AS2 has hub + two border routers; hub must reach both.
	as2 := top.AS(2)
	if len(as2.Routers) != 3 {
		t.Fatalf("AS2 routers = %d, want 3", len(as2.Routers))
	}
	hub := as2.Routers[0]
	if n := top.RouterNeighbors(hub); !slices.Equal(n, as2.Routers[1:]) {
		t.Fatalf("hub neighbors = %v, want %v", n, as2.Routers[1:])
	}
}

func TestMakeASPairCanonical(t *testing.T) {
	if MakeASPair(5, 3) != MakeASPair(3, 5) {
		t.Fatal("pair not canonical")
	}
}
