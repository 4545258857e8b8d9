package dataplane

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/obs"
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
// of the same packet: same sequence number, so same lossy draws.
func ask(t *testing.T, pl *Plane, from topo.RouterID, pkt Packet, want walkOutcome, why string) Result {
	t.Helper()
	got, how := pl.walk(from, pkt)
	pl.seq--
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
// rule kills exactly the stored walks that crossed an AS the rule names —
// directly, or through a router — with a header its address matchers admit,
// and every other walk goes on answering out of its entry. Seen from
// outside, one door at a time, over every hub-to-hub walk of the diamond.
func TestRuleChangesTouchExactlyTheirScope(t *testing.T) {
	top, _, _ := fig2Net(t)
	bOut, aIn := borderLink(top, 20, 30)
	for _, tc := range []struct {
		name  string
		rule  Rule
		scope []topo.ASN
	}{
		{"AS", BlackholeAS(30), []topo.ASN{30}},
		{"AS towards", BlackholeASTowards(40, topo.Block(10)), []topo.ASN{40}},
		{"AS from", Rule{AtAS: 20, SrcWithin: topo.Block(50)}, []topo.ASN{20}},
		{"router", BlackholeRouter(hub(top, 50)), []topo.ASN{50}},
		{"AS link", DropASLink(20, 40), []topo.ASN{20, 40}},
		{"AS link towards", Rule{FromAS: 30, ToAS: 60, DstWithin: topo.ProductionPrefix(10), SrcWithin: topo.Block(70)}, []topo.ASN{30, 60}},
		{"router link", DropRouterLink(bOut, aIn), []topo.ASN{20, 30}},
		{"lossy AS", LossyAS(60, 0.5, 1), []topo.ASN{60}},
		{"unknown AS and router", Rule{AtAS: 9, AtRouter: 1 << 20, HasRouter: true}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			top, _, pl := fig2Net(t)
			pl.Instrument(obs.New())
			var walks []roundPacket
			for _, a := range top.ASNs() {
				src := top.Router(hub(top, a)).Addr
				walks = append(walks, roundPacket{hub(top, a), Packet{Src: src, Dst: topo.ProductionAddr(10)}})
				for _, b := range top.ASNs() {
					if a != b {
						walks = append(walks, roundPacket{hub(top, a), Packet{Src: src, Dst: top.Router(hub(top, b)).Addr}})
					}
				}
			}
			// stored is each header's walk as the cache last stored it;
			// dead marks the ones a change has killed since.
			stored, dead := make([]Result, len(walks)), make([]bool, len(walks))
			for i, w := range walks {
				stored[i] = ask(t, pl, w.from, w.pkt, walkMiss, "cold")
			}
			var id FailureID
			killed, spared := 0, 0
			for _, step := range []struct {
				name   string
				change func()
			}{
				{"AddFailure", func() { id = pl.AddFailure(tc.rule) }},
				{"RemoveFailure", func() { pl.RemoveFailure(id) }},
				{"AddFailure again", func() { id = pl.AddFailure(tc.rule) }},
				{"ClearFailures", pl.ClearFailures},
			} {
				// The change kills the live walks that crossed its scope
				// with a header it admits, judged on the walks as stored
				// (and on the matchers themselves, not through Rule.admits,
				// which is part of what is being tested).
				kills := int64(0)
				for i, w := range walks {
					admitted := (!tc.rule.DstWithin.IsValid() || tc.rule.DstWithin.Contains(w.pkt.Dst)) &&
						(!tc.rule.SrcWithin.IsValid() || tc.rule.SrcWithin.Contains(w.pkt.Src))
					crossed := slices.ContainsFunc(stored[i].Hops, func(h Hop) bool { return slices.Contains(tc.scope, h.AS) })
					if !dead[i] && admitted && crossed {
						dead[i] = true
						kills++
					}
				}
				before := pl.obs.cacheRuleKills.Value()
				step.change()
				if got := pl.obs.cacheRuleKills.Value() - before; got != kills {
					t.Errorf("%s counted %d rule kills, want %d", step.name, got, kills)
				}
				for i, w := range walks {
					want := walkHit
					if dead[i] {
						want = walkMiss
					}
					res := ask(t, pl, w.from, w.pkt, want, fmt.Sprintf("%s, to %v", step.name, w.pkt.Dst))
					if dead[i] {
						stored[i], dead[i] = res, false
						killed++
					} else {
						spared++
					}
				}
			}
			if spared == 0 || (killed == 0) != (tc.scope == nil) {
				t.Errorf("%d walks re-walked and %d answered from the cache: want some spared, and some killed iff the rule has a scope", killed, spared)
			}
		})
	}
}

// TestRuleOffTheWalkLeavesItCached is the scope rule seen from one walk:
// rules at ASes it does not cross, and rules at ASes it does cross whose
// address matchers do not admit its header, added and lifted, cost it
// nothing; one on its path that admits it costs it one walk each way.
func TestRuleOffTheWalkLeavesItCached(t *testing.T) {
	top, _, pl := fig2Net(t)
	from := hub(top, 50) // D reaches O through C and B
	pkt := Packet{Src: top.Router(from).Addr, Dst: topo.ProductionAddr(10)}
	ask(t, pl, from, pkt, walkMiss, "cold")
	aOut, eIn := borderLink(top, 30, 60)
	cOut, bIn := borderLink(top, 40, 20)
	for _, r := range []Rule{
		BlackholeAS(30), BlackholeRouter(hub(top, 70)), DropASLink(30, 60), DropRouterLink(aOut, eIn),
		// On the walk, but for other packets: to another destination, from
		// another source.
		BlackholeASTowards(40, topo.Block(70)),
		{AtRouter: hub(top, 20), HasRouter: true, SrcWithin: topo.Block(60)},
		{FromAS: 40, ToAS: 20, DstWithin: topo.ProductionPrefix(10), SrcWithin: topo.ProductionPrefix(50)},
		{FromRouter: cOut, ToRouter: bIn, HasLink: true, DstWithin: topo.SentinelPrefix(10).Masked(), SrcWithin: topo.Block(10)},
	} {
		id := pl.AddFailure(r)
		ask(t, pl, from, pkt, walkHit, "rule elsewhere installed")
		pl.RemoveFailure(id)
		ask(t, pl, from, pkt, walkHit, "rule elsewhere removed")
	}
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

// TestWalkStandsWhileItsDestinationHoldsStill is the route half of the
// rule, both questions: a walk whose ASes changed their forwarding for some
// other prefix is kept, and the keeping re-baselines its stamps, so that a
// later change for its own destination at an AS it does not cross meets
// unmoved stamps and costs it nothing either.
func TestWalkStandsWhileItsDestinationHoldsStill(t *testing.T) {
	const O, A, D, E, F = topo.ASN(10), topo.ASN(30), topo.ASN(50), topo.ASN(60), topo.ASN(70)
	top, e, pl := fig2Net(t)
	pl.Instrument(obs.New())
	toO := func(from topo.ASN) (topo.RouterID, Packet) {
		return hub(top, from), Packet{Src: top.Router(hub(top, from)).Addr, Dst: topo.ProductionAddr(O)}
	}
	counters := func() [2]int64 { return [2]int64{pl.obs.cacheStale.Value(), pl.obs.cacheKept.Value()} }
	fromD, pktD := toO(D) // D reaches O through C and B
	fromE, pktE := toO(E) // E through A and B
	ask(t, pl, fromD, pktD, walkMiss, "cold")
	ask(t, pl, fromE, pktE, walkMiss, "cold")

	// F announces a prefix of its own: every AS gains a route, so every
	// stamp of both walks moves, for a prefix neither is headed to.
	e.Announce(F, topo.ProductionPrefix(F), bgp.OriginConfig{})
	settle(t, e)
	ask(t, pl, fromD, pktD, walkHit, "another prefix appeared at every AS")
	ask(t, pl, fromE, pktE, walkHit, "another prefix appeared at every AS")
	if got, want := counters(), [2]int64{0, 2}; got != want {
		t.Fatalf("stale, kept = %v, want %v", got, want)
	}

	// The poison moves the destination's forwarding at A, E and F: off D's
	// walk, whose re-baselined stamps hold still; on E's.
	e.Announce(O, topo.ProductionPrefix(O), bgp.OriginConfig{Pattern: topo.Path{O, A, O}})
	settle(t, e)
	ask(t, pl, fromD, pktD, walkHit, "destination rerouted at ASes off the walk")
	if res := ask(t, pl, fromE, pktE, walkMiss, "destination rerouted at an AS on the walk"); res.ASPath().Contains(A) {
		t.Fatalf("E under poison: via %v, want around A", res.ASPath())
	}
	if got, want := counters(), [2]int64{1, 2}; got != want {
		t.Fatalf("stale, kept = %v, want %v", got, want)
	}
}

// TestMoreSpecificReshapesTheMatch: an address reached by its covering
// block gets a more-specific, originated elsewhere. No route of the block
// changed anywhere; the walk must still be redone, and again when the
// more-specific goes.
func TestMoreSpecificReshapesTheMatch(t *testing.T) {
	const O, C, D = topo.ASN(10), topo.ASN(40), topo.ASN(50)
	top, e, pl := fig2Net(t)
	from := hub(top, D)
	// An unused /24 in O's block, outside its production and sentinel.
	more := netip.MustParsePrefix("1.10.242.0/24")
	pkt := Packet{Src: top.Router(from).Addr, Dst: netip.MustParseAddr("1.10.242.1")}
	if res := ask(t, pl, from, pkt, walkMiss, "cold"); res.LastAS != O {
		t.Fatalf("by the block: %v, want delivered at O", &res)
	}
	e.Announce(C, more, bgp.OriginConfig{})
	settle(t, e)
	if res := ask(t, pl, from, pkt, walkMiss, "more-specific at C"); res.LastAS != C || !res.Delivered() {
		t.Fatalf("with C originating a more-specific: %v, want delivered at C", &res)
	}
	ask(t, pl, from, pkt, walkHit, "asked again")
	e.Withdraw(C, more)
	settle(t, e)
	if res := ask(t, pl, from, pkt, walkMiss, "more-specific withdrawn"); res.LastAS != O {
		t.Fatalf("by the block again: %v, want delivered at O", &res)
	}
}

// TestWalkCacheBoundedWithHandles pins the cache's growth bound with
// handles in play: four times walkCacheCap distinct headers go through a
// plane on which a thousand Flows are held, the map never exceeds the cap,
// and after every overflow — and after a rule change that the handles'
// entries must feel wherever they are — each handle still answers what the
// uncached walk on a twin plane does, out of the entry the map holds.
func TestWalkCacheBoundedWithHandles(t *testing.T) {
	res, pl, ref := twinPlanes(t)
	reg := obs.New()
	pl.Instrument(reg)
	top := res.Top
	type held struct {
		flow Flow
		roundPacket
	}
	var handles []held
	for i := 0; len(handles) < 1000; i++ {
		from := top.AS(res.Stubs[i%len(res.Stubs)]).Routers[0]
		pkt := Packet{Src: addr4(240<<24 | uint32(i)), Dst: topo.ProductionAddr(res.Stubs[(i/len(res.Stubs)+i+1)%len(res.Stubs)])}
		handles = append(handles, held{pl.Flow(from, pkt.Src, pkt.Dst), roundPacket{from, pkt}})
	}
	askHandles := func(when string) {
		t.Helper()
		for i := range handles {
			h := &handles[i]
			got, want := h.flow.Forward(0), ref.forward(h.from, h.pkt)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: handle %d from %d %+v:\ncached %+v\nwalked %+v", when, i, h.from, h.pkt, got, want)
			}
			if h.flow.e != pl.walks[walkKey{from: h.from, dst: v4(h.pkt.Dst), src: v4(h.pkt.Src)}] {
				t.Fatalf("%s: handle %d holds an entry the cache does not", when, i)
			}
		}
	}
	askHandles("cold")
	transit := res.Transit[0]
	var rule, refRule FailureID
	for n := 0; n < 4*walkCacheCap; n++ {
		from := top.AS(res.Stubs[n%len(res.Stubs)]).Routers[0]
		pkt := Packet{Src: addr4(250<<24 | uint32(n)), Dst: topo.ProductionAddr(res.Stubs[(n+7)%len(res.Stubs)])}
		if got, want := pl.Forward(from, pkt), ref.forward(from, pkt); !reflect.DeepEqual(got, want) {
			t.Fatalf("header %d: cached %+v, walked %+v", n, got, want)
		}
		if len(pl.walks) > walkCacheCap {
			t.Fatalf("after %d headers the cache holds %d entries, cap %d", n+1, len(pl.walks), walkCacheCap)
		}
		if n%(walkCacheCap/2) == walkCacheCap/4 {
			// Between two overflows and straight after one, alternately: a
			// rule comes or goes under the handles.
			if rule == 0 {
				rule, refRule = pl.AddFailure(BlackholeAS(transit)), ref.AddFailure(BlackholeAS(transit))
			} else {
				pl.RemoveFailure(rule)
				ref.RemoveFailure(refRule)
				rule = 0
			}
			askHandles(fmt.Sprintf("after %d headers", n+1))
		}
	}
	if got := pl.obs.cacheFull.Value(); got < 3 {
		t.Fatalf("%d overflows over 4x the cap, want at least 3", got)
	}
}
