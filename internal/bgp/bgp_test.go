package bgp

import (
	"net/netip"
	"strings"
	"testing"

	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// lineTopo builds stub(1) -> transit(2) -> transit(3) -> stub(4), each AS a
// customer of the next.
func lineTopo(t *testing.T) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 4; asn++ {
		b.AddAS(asn, "")
	}
	b.Provider(1, 2)
	b.Provider(2, 3)
	b.Provider(3, 4)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func newEngine(t *testing.T, top *topo.Topology) (*Engine, *simclock.Scheduler) {
	t.Helper()
	clk := simclock.New()
	return New(top, clk, Config{Seed: 42}), clk
}

func converge(t *testing.T, e *Engine) {
	t.Helper()
	if !e.Converge(5_000_000) {
		t.Fatal("engine did not converge")
	}
}

func TestPropagationAlongLine(t *testing.T) {
	e, _ := newEngine(t, lineTopo(t))
	p := topo.ProductionPrefix(1)
	e.Originate(1, p)
	converge(t, e)
	r, ok := e.BestRoute(4, p)
	if !ok {
		t.Fatal("AS4 has no route")
	}
	if !r.Path.Equal(topo.Path{3, 2, 1}) {
		t.Fatalf("AS4 path = %v, want 3 2 1", r.Path)
	}
	nh, ok := r.NextHop()
	if !ok || nh != 3 {
		t.Fatalf("NextHop = %v, %v", nh, ok)
	}
	// The origin's own route is originated with an empty path.
	ro, _ := e.BestRoute(1, p)
	if !ro.Originated || len(ro.Path) != 0 {
		t.Fatalf("origin route = %+v", ro)
	}
}

func TestCustomerPreferredOverPeerAndProvider(t *testing.T) {
	// AS1 originates. AS4 can learn it from customer 3, peer 2, provider 5.
	// 1 is customer of 2, 3 and 5; 2 peers 4; 3 is customer of 4; 4 is
	// customer of 5.
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 5; asn++ {
		b.AddAS(asn, "")
	}
	b.Provider(1, 2)
	b.Provider(1, 3)
	b.Provider(1, 5)
	b.Peer(2, 4)
	b.Provider(3, 4)
	b.Provider(4, 5)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := newEngine(t, top)
	p := topo.ProductionPrefix(1)
	e.Originate(1, p)
	converge(t, e)
	r, ok := e.BestRoute(4, p)
	if !ok {
		t.Fatal("AS4 has no route")
	}
	if nh, _ := r.NextHop(); nh != 3 {
		t.Fatalf("AS4 next hop = %d, want customer 3 (path %v)", nh, r.Path)
	}
	if r.LocalPref != prefCustomer {
		t.Fatalf("LocalPref = %d, want %d", r.LocalPref, prefCustomer)
	}
}

func TestValleyFreeExport(t *testing.T) {
	// 1 originates; 2 is 1's peer; 3 is 2's peer; 4 is 2's customer.
	// Peer-learned routes must reach customers (4) but not peers (3).
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 4; asn++ {
		b.AddAS(asn, "")
	}
	b.Peer(1, 2)
	b.Peer(2, 3)
	b.Provider(4, 2)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := newEngine(t, top)
	p := topo.ProductionPrefix(1)
	e.Originate(1, p)
	converge(t, e)
	if _, ok := e.BestRoute(4, p); !ok {
		t.Fatal("customer 4 should learn peer route")
	}
	if r, ok := e.BestRoute(3, p); ok {
		t.Fatalf("peer 3 should NOT learn peer route, got %v", r.Path)
	}
}

// fig2Topo reproduces the topology of Fig. 2 in the paper.
//
//	O(10) customer of B(20); B customer of A(30) and C(40); C customer of
//	D(50); A and D customers of E(60); F(70) customer of A.
func fig2Topo(t *testing.T) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	for _, asn := range []topo.ASN{10, 20, 30, 40, 50, 60, 70} {
		b.AddAS(asn, "")
	}
	b.Provider(10, 20) // O -> B
	b.Provider(20, 30) // B -> A
	b.Provider(20, 40) // B -> C
	b.Provider(40, 50) // C -> D
	b.Provider(30, 60) // A -> E
	b.Provider(50, 60) // D -> E
	b.Provider(70, 30) // F -> A
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestFig2PoisoningRepairsAndCutsCaptive(t *testing.T) {
	const (
		O = topo.ASN(10)
		B = topo.ASN(20)
		A = topo.ASN(30)
		C = topo.ASN(40)
		D = topo.ASN(50)
		E = topo.ASN(60)
		F = topo.ASN(70)
	)
	top := fig2Topo(t)
	e, _ := newEngine(t, top)
	prod := topo.ProductionPrefix(O)
	sent := topo.SentinelPrefix(O)
	// Baseline: prepended production announcement + unpoisoned sentinel.
	e.Announce(O, prod, OriginConfig{Pattern: topo.Path{O, O, O}})
	e.Announce(O, sent, OriginConfig{Pattern: topo.Path{O, O, O}})
	converge(t, e)

	// Fig 2(a): E routes via A (shorter), F via A, A via B.
	r, _ := e.BestRoute(E, prod)
	if nh, _ := r.NextHop(); nh != A {
		t.Fatalf("pre-poison E next hop = %d, want A (path %v)", nh, r.Path)
	}
	if r, ok := e.BestRoute(F, prod); !ok || r.Path[0] != A {
		t.Fatalf("pre-poison F should route via A, got %v", r)
	}

	// Fig 2(b): poison A.
	e.Announce(O, prod, OriginConfig{Pattern: topo.Path{O, A, O}})
	converge(t, e)

	if _, ok := e.BestRoute(A, prod); ok {
		t.Fatal("A should have rejected the poisoned production route")
	}
	r, ok := e.BestRoute(E, prod)
	if !ok {
		t.Fatal("E lost its route entirely")
	}
	// The poison token A appears in the path, but A must no longer be a
	// forwarding hop: the route now goes E->D->C->B->O.
	if !r.Path.Equal(topo.Path{D, C, B, O, A, O}) {
		t.Fatalf("E path = %v, want D C B O A O", r.Path)
	}
	if nh, _ := r.NextHop(); nh != D {
		t.Fatalf("E next hop = %d, want D", nh)
	}
	if _, ok := e.BestRoute(F, prod); ok {
		t.Fatal("captive F should have no production route")
	}
	// ...but F keeps the unpoisoned sentinel (Backup Property).
	rs, ok := e.BestRoute(F, sent)
	if !ok {
		t.Fatal("F lost the sentinel")
	}
	if rs.Path[0] != A {
		t.Fatalf("F sentinel path = %v, want via A", rs.Path)
	}
	// A also keeps a sentinel route (it can still try to reach O).
	if _, ok := e.BestRoute(A, sent); !ok {
		t.Fatal("A lost the sentinel")
	}

	// Unpoison: everyone reconverges to the original routes.
	e.Announce(O, prod, OriginConfig{Pattern: topo.Path{O, O, O}})
	converge(t, e)
	r, _ = e.BestRoute(E, prod)
	if nh, _ := r.NextHop(); nh != A {
		t.Fatalf("post-unpoison E next hop = %d, want A", nh)
	}
	if _, ok := e.BestRoute(F, prod); !ok {
		t.Fatal("F should regain the production route")
	}
}

func TestPoisonLengthMatchesPrepenedBaseline(t *testing.T) {
	// O-A-O and O-O-O are the same length, so an AS not routing via A
	// keeps its path (just swaps the announcement) without exploring.
	top := fig2Topo(t)
	e, _ := newEngine(t, top)
	prod := topo.ProductionPrefix(10)
	e.Announce(10, prod, OriginConfig{Pattern: topo.Path{10, 10, 10}})
	converge(t, e)
	rB, _ := e.BestRoute(20, prod)
	if len(rB.Path) != 3 {
		t.Fatalf("B baseline path len = %d, want 3", len(rB.Path))
	}
	e.Announce(10, prod, OriginConfig{Pattern: topo.Path{10, 30, 10}})
	converge(t, e)
	rB2, _ := e.BestRoute(20, prod)
	if len(rB2.Path) != 3 || rB2.Path[1] != 30 {
		t.Fatalf("B poisoned path = %v", rB2.Path)
	}
}

func TestMaxOwnASOccursTwoNeedsDoublePoison(t *testing.T) {
	top := fig2Topo(t)
	top.AS(30).MaxOwnASOccurs = 2 // AS286-style remote-site config
	e, _ := newEngine(t, top)
	prod := topo.ProductionPrefix(10)
	e.Announce(10, prod, OriginConfig{Pattern: topo.Path{10, 30, 10}})
	converge(t, e)
	if _, ok := e.BestRoute(30, prod); !ok {
		t.Fatal("single poison should be accepted by MaxOwnASOccurs=2 AS")
	}
	// Double poison works (§7.1).
	e.Announce(10, prod, OriginConfig{Pattern: topo.Path{10, 30, 30, 10}})
	converge(t, e)
	if _, ok := e.BestRoute(30, prod); ok {
		t.Fatal("double poison should be rejected")
	}
}

func TestLoopDetectionDisabledCannotBePoisoned(t *testing.T) {
	top := fig2Topo(t)
	top.AS(30).MaxOwnASOccurs = 0
	e, _ := newEngine(t, top)
	prod := topo.ProductionPrefix(10)
	e.Announce(10, prod, OriginConfig{Pattern: topo.Path{10, 30, 10}})
	converge(t, e)
	if _, ok := e.BestRoute(30, prod); !ok {
		t.Fatal("AS with loop detection disabled should accept its own ASN")
	}
}

func TestCogentStylePeerFilter(t *testing.T) {
	// 1 originates and poisons 4. 2 is 1's provider; 3 is 2's provider;
	// 3 peers with 4. With FilterPeersFromCustomers, 3 rejects the
	// customer-learned route containing its peer 4.
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 4; asn++ {
		b.AddAS(asn, "")
	}
	b.Provider(1, 2)
	b.Provider(2, 3)
	b.Peer(3, 4)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	top.AS(3).FilterPeersFromCustomers = true
	e, _ := newEngine(t, top)
	p := topo.ProductionPrefix(1)
	e.Announce(1, p, OriginConfig{Pattern: topo.Path{1, 4, 1}})
	converge(t, e)
	if _, ok := e.BestRoute(3, p); ok {
		t.Fatal("Cogent-style AS should reject customer route containing its peer")
	}
	// An unpoisoned announcement passes.
	e.Announce(1, p, OriginConfig{Pattern: topo.Path{1, 1, 1}})
	converge(t, e)
	if _, ok := e.BestRoute(3, p); !ok {
		t.Fatal("unpoisoned route should be accepted")
	}
}

func TestSelectiveAdvertising(t *testing.T) {
	// O(1) has providers 2 and 3; withholding from 3 leaves only the
	// 2-side route at grandparent 4 (provider of both).
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 4; asn++ {
		b.AddAS(asn, "")
	}
	b.Provider(1, 2)
	b.Provider(1, 3)
	b.Provider(2, 4)
	b.Provider(3, 4)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := newEngine(t, top)
	p := topo.ProductionPrefix(1)
	e.Announce(1, p, OriginConfig{Withhold: map[topo.ASN]bool{3: true}})
	converge(t, e)
	// The withheld provider no longer has the direct customer route; the
	// best it can do is the long way round via its own provider 4 —
	// exactly the traffic shift selective advertising is used for.
	r3, ok := e.BestRoute(3, p)
	if !ok {
		t.Fatal("AS3 should still reach the prefix via AS4")
	}
	if r3.Path[0] != 4 {
		t.Fatalf("AS3 route = %v, want via 4", r3.Path)
	}
	r, ok := e.BestRoute(4, p)
	if !ok || r.Path[0] != 2 {
		t.Fatalf("AS4 route = %v, want via 2", r)
	}
}

func TestSelectivePoisoningFig3(t *testing.T) {
	// O(1) announces unpoisoned via D1(2) and poisons A(4) via D2(3).
	// A receives the poisoned path from the 3 side and the clean path
	// from the 2 side, so A keeps a route but only via the 2 side —
	// traffic shifts off the A–(3-side) link without cutting A off.
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 5; asn++ {
		b.AddAS(asn, "")
	}
	b.Provider(1, 2) // O -> D1
	b.Provider(1, 3) // O -> D2
	b.Provider(2, 5) // D1 -> B1
	b.Provider(5, 4) // B1 -> A
	b.Provider(3, 4) // D2 -> A (disjoint path)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := newEngine(t, top)
	p := topo.ProductionPrefix(1)
	// Baseline: A prefers the shorter customer path via 3.
	e.Announce(1, p, OriginConfig{})
	converge(t, e)
	r, _ := e.BestRoute(4, p)
	if nh, _ := r.NextHop(); nh != 3 {
		t.Fatalf("baseline A next hop = %d, want 3 (path %v)", nh, r.Path)
	}
	// Selectively poison A on announcements via 3 only.
	e.Announce(1, p, OriginConfig{
		PerNeighbor: map[topo.ASN]topo.Path{3: {1, 4, 1}},
	})
	converge(t, e)
	r, ok := e.BestRoute(4, p)
	if !ok {
		t.Fatal("A should still have a route (selective, not full, poison)")
	}
	if nh, _ := r.NextHop(); nh != 5 {
		t.Fatalf("selectively-poisoned A next hop = %d, want 5 (path %v)", nh, r.Path)
	}
	// D2(3) itself still has its direct customer route.
	r3, ok := e.BestRoute(3, p)
	if !ok || r3.Path[0] != 1 {
		t.Fatalf("D2 route = %v, want direct", r3)
	}
}

func TestWithdrawPropagates(t *testing.T) {
	e, _ := newEngine(t, lineTopo(t))
	p := topo.ProductionPrefix(1)
	e.Originate(1, p)
	converge(t, e)
	if _, ok := e.BestRoute(4, p); !ok {
		t.Fatal("setup: no route at 4")
	}
	e.Withdraw(1, p)
	converge(t, e)
	for asn := topo.ASN(2); asn <= 4; asn++ {
		if _, ok := e.BestRoute(asn, p); ok {
			t.Fatalf("AS%d still has a route after withdrawal", asn)
		}
	}
}

func TestLookupLongestPrefixMatch(t *testing.T) {
	e, _ := newEngine(t, lineTopo(t))
	prod := topo.ProductionPrefix(1) // /24
	sent := topo.SentinelPrefix(1)   // /23
	blk := topo.Block(1)             // /16
	e.Originate(1, blk)
	e.Originate(1, sent)
	e.Originate(1, prod)
	converge(t, e)
	// Production address matches /24 over /23 over /16.
	r, ok := e.Lookup(4, topo.ProductionAddr(1))
	if !ok || r.Prefix != prod {
		t.Fatalf("LPM production = %v", r)
	}
	// Sentinel probe address is outside /24 but inside /23.
	r, ok = e.Lookup(4, topo.SentinelProbeAddr(1))
	if !ok || r.Prefix != sent {
		t.Fatalf("LPM sentinel = %v", r)
	}
	// A router address matches only the block.
	r, ok = e.Lookup(4, topo.RouterAddr(1, 0))
	if !ok || r.Prefix != blk {
		t.Fatalf("LPM block = %v", r)
	}
	if _, ok := e.Lookup(4, netip.MustParseAddr("203.0.113.1")); ok {
		t.Fatal("unknown address should not resolve")
	}
}

func TestSplitHorizonNoEcho(t *testing.T) {
	// Two ASes: after convergence, updates should stop; an echo loop
	// would keep the engine busy forever.
	b := topo.NewBuilder()
	b.AddAS(1, "")
	b.AddAS(2, "")
	b.Peer(1, 2)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := newEngine(t, top)
	e.Originate(1, topo.ProductionPrefix(1))
	converge(t, e)
	if got := e.UpdatesSentBy(2); got != 0 {
		t.Fatalf("AS2 sent %d updates, want 0 (split horizon + no customers)", got)
	}
}

// TestDeterministicReplay re-runs identical configurations; any hidden
// dependence on map iteration or allocation order shows up as a differing
// loc-RIB or per-AS update count.
func TestDeterministicReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) *Engine
	}{
		{"fig2 poison", func(t *testing.T) *Engine {
			e := New(fig2Topo(t), simclock.New(), Config{Seed: 7})
			p := topo.ProductionPrefix(10)
			e.Announce(10, p, OriginConfig{Pattern: topo.Path{10, 10, 10}})
			e.Converge(1_000_000)
			e.Announce(10, p, OriginConfig{Pattern: topo.Path{10, 30, 10}})
			e.Converge(1_000_000)
			return e
		}},
		{"churn", func(t *testing.T) *Engine {
			gen := hundredASTopo(t)
			e := New(gen.Top, simclock.New(), Config{Seed: 3})
			churn(t, e, gen)
			return e
		}},
		{"dampening flaps", func(t *testing.T) *Engine {
			gen := hundredASTopo(t)
			e := New(gen.Top, simclock.New(), Config{Seed: 5, Dampening: true})
			dampeningFlaps(t, e, gen)
			return e
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, second := ribDigest(tc.run(t)), ribDigest(tc.run(t))
			if first != second || !strings.Contains(first, " via ") {
				t.Fatal("replay diverged, or propagated no routes")
			}
		})
	}
}

func TestAnnouncePatternValidation(t *testing.T) {
	e, _ := newEngine(t, lineTopo(t))
	p := topo.ProductionPrefix(1)
	for _, bad := range []topo.Path{{2, 1}, {1, 2}, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pattern %v should panic", bad)
				}
			}()
			e.Announce(1, p, OriginConfig{Pattern: bad})
		}()
	}
}

func TestBestChangeHookFires(t *testing.T) {
	top := lineTopo(t)
	clk := simclock.New()
	e := New(top, clk, Config{Seed: 1})
	var events []BestChange
	e.OnBestChange = func(bc BestChange) { events = append(events, bc) }
	p := topo.ProductionPrefix(1)
	e.Originate(1, p)
	e.Converge(1_000_000)
	// 4 ASes each gained a route exactly once.
	if len(events) != 4 {
		t.Fatalf("got %d best-change events, want 4: %+v", len(events), events)
	}
	e.Withdraw(1, p)
	e.Converge(1_000_000)
	last := events[len(events)-1]
	if last.Path != nil {
		t.Fatalf("final event should be a loss, got %+v", last)
	}
}

func TestConvergenceTimeIsPlausible(t *testing.T) {
	top := fig2Topo(t)
	clk := simclock.New()
	e := New(top, clk, Config{Seed: 3})
	p := topo.ProductionPrefix(10)
	e.Announce(10, p, OriginConfig{Pattern: topo.Path{10, 10, 10}})
	e.Converge(1_000_000)
	start := clk.Now()
	e.Announce(10, p, OriginConfig{Pattern: topo.Path{10, 30, 10}})
	e.Converge(1_000_000)
	elapsed := clk.Now() - start
	// Poisoning must settle within minutes (paper: global convergence
	// typically < 200s), and can't be instantaneous since E must explore.
	if elapsed <= 0 || elapsed.Seconds() > 300 {
		t.Fatalf("poison convergence took %v", elapsed)
	}
}
