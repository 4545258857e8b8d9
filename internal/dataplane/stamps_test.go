package dataplane

import (
	"reflect"
	"slices"
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// The walk cache's validity rule, one door at a time: each test changes the
// world in one way and asks the cached plane for walks that change crossed
// and walks it did not. The first must be walked again and equal the
// uncached forward; the second must be answered out of the entry they had.

// fig2Net is the paper's fig. 2 diamond with routers: O(10) customer of
// B(20); B customer of A(30) and C(40); C customer of D(50); A and D
// customers of E(60); F(70) customer of A. Every AS originates its block and
// O announces its production prefix over the prepended O-O-O baseline.
func fig2Net(t *testing.T) (*topo.Topology, *bgp.Engine, *Plane) {
	t.Helper()
	b := topo.NewBuilder()
	for _, asn := range []topo.ASN{10, 20, 30, 40, 50, 60, 70} {
		b.AddAS(asn, "")
		b.AddRouter(asn, "") // hub
	}
	for _, l := range [][2]topo.ASN{{10, 20}, {20, 30}, {20, 40}, {40, 50}, {30, 60}, {50, 60}, {70, 30}} {
		b.Provider(l[0], l[1])
		b.ConnectAS(l[0], l[1])
	}
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := bgp.New(top, simclock.New(), bgp.Config{Seed: 1})
	for _, asn := range top.ASNs() {
		e.Originate(asn, topo.Block(asn))
	}
	e.Announce(10, topo.ProductionPrefix(10), bgp.OriginConfig{Pattern: topo.Path{10, 10, 10}})
	settle(t, e)
	return top, e, New(top, e)
}

// borderLink returns the router link that carries traffic from AS a to AS b.
func borderLink(top *topo.Topology, a, b topo.ASN) (out, in topo.RouterID) {
	l := top.BorderRouters(a, b)[0]
	return l[0], l[1]
}

func settle(t *testing.T, e *bgp.Engine) {
	t.Helper()
	if !e.Converge(1_000_000) {
		t.Fatal("no convergence")
	}
}

// ask sends pkt through the cache and holds the answer to the uncached walk
// (which advances pl.seq once more; nothing here reads it).
func ask(t *testing.T, pl *Plane, from topo.RouterID, pkt Packet, want walkOutcome, why string) Result {
	t.Helper()
	got, how := pl.walk(from, pkt)
	if ref := pl.forward(from, pkt); !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: cached %v, walked %v", why, &got, &ref)
	}
	if how != want {
		t.Fatalf("%s, from router %d: outcome %d, want %d", why, from, how, want)
	}
	return got
}

func TestCachedWalkLivesUntilAnASItCrossedReroutes(t *testing.T) {
	const O, A, C, D, E, F = topo.ASN(10), topo.ASN(30), topo.ASN(40), topo.ASN(50), topo.ASN(60), topo.ASN(70)
	top, e, pl := fig2Net(t)
	prod := topo.ProductionPrefix(O)
	toO := func(from topo.ASN) (topo.RouterID, Packet) {
		return hub(top, from), Packet{Src: top.Router(hub(top, from)).Addr, Dst: topo.ProductionAddr(O)}
	}
	all := func(want map[topo.ASN]walkOutcome, why string) map[topo.ASN]*Result {
		t.Helper()
		got := map[topo.ASN]*Result{}
		for _, asn := range []topo.ASN{D, E, F} {
			from, pkt := toO(asn)
			res := ask(t, pl, from, pkt, want[asn], why)
			got[asn] = &res
		}
		return got
	}
	all(map[topo.ASN]walkOutcome{D: walkMiss, E: walkMiss, F: walkMiss}, "cold")
	all(map[topo.ASN]walkOutcome{D: walkHit, E: walkHit, F: walkHit}, "warm")

	// The poison rewrites the production route's path at every AS. It moves
	// E's next hop from A to D and takes the route away from A and from
	// captive F, whose packets fall back to O's covering block (still
	// through A); D, C and B forward as they did.
	before := e.RIBVersion()
	e.Announce(O, prod, bgp.OriginConfig{Pattern: topo.Path{O, A, O}})
	settle(t, e)
	got := all(map[topo.ASN]walkOutcome{D: walkHit, E: walkMiss, F: walkMiss}, "poisoned")
	if e.RIBVersion() == before {
		t.Fatal("the poison changed no loc-RIB")
	}
	if p := got[E].ASPath(); !got[E].Delivered() || p.Contains(A) {
		t.Fatalf("E under poison: %v via %v, want delivered around A", got[E], p)
	}
	if p := got[F].ASPath(); !got[F].Delivered() || !p.Contains(A) {
		t.Fatalf("captive F under poison: %v via %v, want delivered through A by the covering block", got[F], p)
	}

	// Unpoisoned, E and F go back through A; D still never noticed.
	e.Announce(O, prod, bgp.OriginConfig{Pattern: topo.Path{O, O, O}})
	settle(t, e)
	all(map[topo.ASN]walkOutcome{D: walkHit, E: walkMiss, F: walkMiss}, "unpoisoned")

	// C starts originating the prefix it had learned: D's walk now ends at
	// C, with no change to D's own next hop, and E moves to the shorter
	// customer route through D. F routes through A and B, whose customer
	// route to O beats anything their providers offer.
	e.Announce(C, prod, bgp.OriginConfig{})
	settle(t, e)
	got = all(map[topo.ASN]walkOutcome{D: walkMiss, E: walkMiss, F: walkHit}, "second origin")
	for _, asn := range []topo.ASN{D, E} {
		if got[asn].LastAS != C || !got[asn].Delivered() {
			t.Fatalf("AS%d with C originating: %v, want delivered at C", asn, got[asn])
		}
	}

	// The route vanishes altogether: the covering block still delivers.
	e.Withdraw(C, prod)
	e.Withdraw(O, prod)
	settle(t, e)
	got = all(map[topo.ASN]walkOutcome{D: walkMiss, E: walkMiss, F: walkMiss}, "withdrawn")
	if !got[F].Delivered() || got[F].LastAS != O {
		t.Fatalf("F after the withdrawal: %v, want delivered at O by its block", got[F])
	}
}

// TestWalkStoppedAtIngressIsStampedThere: a packet blackholed at an AS's
// ingress router never consults that AS's RIB, yet the rule that stopped it
// lives there — the walk must carry that AS's stamp, or lifting the rule
// would leave the blackhole in the cache.
func TestWalkStoppedAtIngressIsStampedThere(t *testing.T) {
	top, _, pl := lineNet(t)
	src := hub(top, 1)
	pkt := Packet{Src: top.Router(src).Addr, Dst: top.Router(hub(top, 3)).Addr}
	clean := ask(t, pl, src, pkt, walkMiss, "cold")
	var ingress topo.RouterID // AS2's first router on the walk
	for _, h := range clean.Hops {
		if h.AS == 2 {
			ingress = h.Router
			break
		}
	}
	for _, lift := range []struct {
		name string
		do   func(FailureID)
	}{
		{"RemoveFailure", func(id FailureID) { pl.RemoveFailure(id) }},
		{"ClearFailures", func(FailureID) { pl.ClearFailures() }},
	} {
		id := pl.AddFailure(BlackholeRouter(ingress))
		if res := ask(t, pl, src, pkt, walkMiss, "rule on the walk"); res.Reason != Blackhole || res.LastRouter != ingress {
			t.Fatalf("%v, want blackholed at router %d", &res, ingress)
		}
		ask(t, pl, src, pkt, walkHit, "blackholed walk asked again")
		lift.do(id)
		if res := ask(t, pl, src, pkt, walkMiss, lift.name); !res.Delivered() {
			t.Fatalf("after %s: %v, want delivered", lift.name, &res)
		}
	}
}

// TestRuleChangesTouchExactlyTheirScope: installing, removing or clearing a
// rule advances the rule version of every AS the rule names — directly, or
// through a router — and of no other, so the walks re-checked are the ones
// that crossed its scope.
func TestRuleChangesTouchExactlyTheirScope(t *testing.T) {
	top, _, pl := fig2Net(t)
	bOut, aIn := borderLink(top, 20, 30)
	for _, tc := range []struct {
		name  string
		rule  Rule
		scope []topo.ASN
	}{
		{"AS", BlackholeAS(30), []topo.ASN{30}},
		{"AS towards", BlackholeASTowards(40, topo.Block(10)), []topo.ASN{40}},
		{"router", BlackholeRouter(hub(top, 50)), []topo.ASN{50}},
		{"AS link", DropASLink(20, 40), []topo.ASN{20, 40}},
		{"router link", DropRouterLink(bOut, aIn), []topo.ASN{20, 30}},
		{"lossy AS", LossyAS(60, 0.5, 1), []topo.ASN{60}},
		{"unknown AS and router", Rule{AtAS: 9, AtRouter: 1 << 20, HasRouter: true}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			moved := func(change func()) []topo.ASN {
				before, global := slices.Clone(pl.ruleVer), pl.ruleVersion
				change()
				if pl.ruleVersion == global {
					t.Error("the global rule version did not move")
				}
				var out []topo.ASN
				for i, asn := range top.ASNs() {
					if pl.ruleVer[i] != before[i] {
						out = append(out, asn)
					}
				}
				return out
			}
			var id FailureID
			for _, step := range []struct {
				name   string
				change func()
			}{
				{"AddFailure", func() { id = pl.AddFailure(tc.rule) }},
				{"RemoveFailure", func() { pl.RemoveFailure(id) }},
				{"AddFailure again", func() { id = pl.AddFailure(tc.rule) }},
				{"ClearFailures", pl.ClearFailures},
			} {
				if got := moved(step.change); !slices.Equal(got, tc.scope) {
					t.Errorf("%s moved the rule version of %v, want %v", step.name, got, tc.scope)
				}
			}
		})
	}
}

// TestRuleOffTheWalkLeavesItCached is the scope rule seen from outside:
// rules at ASes a walk does not cross, added and lifted, cost it nothing;
// one on its path costs it one walk each way.
func TestRuleOffTheWalkLeavesItCached(t *testing.T) {
	top, _, pl := fig2Net(t)
	from := hub(top, 50) // D reaches O through C and B
	pkt := Packet{Src: top.Router(from).Addr, Dst: topo.ProductionAddr(10)}
	ask(t, pl, from, pkt, walkMiss, "cold")
	aOut, eIn := borderLink(top, 30, 60)
	for _, r := range []Rule{BlackholeAS(30), BlackholeRouter(hub(top, 70)), DropASLink(30, 60), DropRouterLink(aOut, eIn)} {
		id := pl.AddFailure(r)
		ask(t, pl, from, pkt, walkHit, "rule elsewhere installed")
		pl.RemoveFailure(id)
		ask(t, pl, from, pkt, walkHit, "rule elsewhere removed")
	}
	cOut, bIn := borderLink(top, 40, 20)
	for _, r := range []Rule{BlackholeAS(40), BlackholeRouter(hub(top, 20)), DropASLink(40, 20), DropRouterLink(cOut, bIn)} {
		id := pl.AddFailure(r)
		if res := ask(t, pl, from, pkt, walkMiss, "rule on the walk installed"); res.Reason != Blackhole {
			t.Fatalf("%+v: %v, want blackholed", r, &res)
		}
		pl.RemoveFailure(id)
		if res := ask(t, pl, from, pkt, walkMiss, "rule on the walk removed"); !res.Delivered() {
			t.Fatalf("%+v removed: %v, want delivered", r, &res)
		}
	}
}
