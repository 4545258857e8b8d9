package dataplane

import (
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// walkWorld is a converged topogen internetwork with two planes over one
// engine: cached goes through the public Forward and through held Flows,
// one packet or a run at a time, ref only ever runs the uncached hop-by-hop forward. Every rule
// change is applied to both, so their FailureIDs and per-packet sequence
// numbers stay in step and any difference in fate is the cache's fault.
type walkWorld struct {
	gen         *topogen.Result
	clk         *simclock.Scheduler
	eng         *bgp.Engine
	cached, ref *Plane
	froms       []topo.RouterID // injection routers the op stream draws from
	addrs       []netip.Addr    // header addresses the op stream draws from
	rules       []FailureID
	// round is a fixed set of headers the op stream replays whole, the way
	// a monitor round does, so that the same walks are asked for again
	// after changes that did and did not touch them; flows are the handles
	// a monitor would hold on them, made once and kept across everything
	// the stream does, cache overflows included.
	round []roundPacket
	flows []Flow
	// unseen numbers the never-repeated headers that push the cache over
	// its cap, and so counts the overflows.
	unseen uint32
}

type roundPacket struct {
	from topo.RouterID
	pkt  Packet
}

func newWalkWorld(t testing.TB, cfg topogen.Config) *walkWorld {
	t.Helper()
	gen, err := topogen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	eng := bgp.New(gen.Top, clk, bgp.Config{Seed: cfg.Seed})
	for _, asn := range gen.Top.ASNs() {
		eng.Originate(asn, topo.Block(asn))
	}
	if !eng.Converge(500_000_000) {
		t.Fatal("no convergence")
	}
	w := &walkWorld{gen: gen, clk: clk, eng: eng, cached: New(gen.Top, eng), ref: New(gen.Top, eng)}
	w.cached.Instrument(obs.New())
	// Small pools, so headers repeat and the cache has something to hit.
	for _, asn := range append(append([]topo.ASN{}, gen.Stubs[:5]...), gen.Transit[:2]...) {
		hub := gen.Top.AS(asn).Routers[0]
		w.froms = append(w.froms, hub)
		w.addrs = append(w.addrs, gen.Top.Router(hub).Addr, topo.ProductionAddr(asn))
	}
	for i, from := range w.froms {
		for _, j := range []int{i + 1, i + 3} {
			p := roundPacket{from, Packet{
				Src: gen.Top.Router(from).Addr,
				Dst: w.addrs[2*(j%len(w.froms))+1],
			}}
			w.round = append(w.round, p)
			w.flows = append(w.flows, w.cached.Flow(p.from, p.pkt.Src, p.pkt.Dst))
		}
	}
	w.addrs = append(w.addrs,
		topo.RouterAddr(topo.MaxASN, 0),    // in the plan, owned by nobody: no route
		netip.Addr{},                       // unset source: a Packet with zero Src
		netip.MustParseAddr("2001:db8::1"), // never routed; bypasses the cache
	)
	return w
}

// same fails unless the cached plane's answer is the uncached walk's, hop
// for hop, and the two planes have numbered as many packets.
func (w *walkWorld) same(t testing.TB, how string, from topo.RouterID, pkt Packet, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s from %d %+v:\ncached %+v\nwalked %+v", how, from, pkt, got, want)
	}
	if w.cached.seq != w.ref.seq {
		t.Fatalf("%s from %d %+v: cached plane at seq %d, walked plane at %d", how, from, pkt, w.cached.seq, w.ref.seq)
	}
}

// forward sends one packet through both planes and fails on any difference
// in fate, hop record or sequence numbering.
func (w *walkWorld) forward(t testing.TB, from topo.RouterID, pkt Packet) {
	t.Helper()
	w.same(t, "keyed", from, pkt, w.cached.Forward(from, pkt), w.ref.forward(from, pkt))
}

// viaFlow sends the i-th round header at the given TTL through the handle
// held on it and holds the answer to the uncached walk. The handle must be
// answering out of the very entry the header's key finds: a handle left
// holding an entry the map has dropped is one the eager rule kill cannot
// reach.
func (w *walkWorld) viaFlow(t testing.TB, i, ttl int) {
	t.Helper()
	p, f := w.round[i], &w.flows[i]
	p.pkt.TTL = ttl
	w.same(t, "flow", p.from, p.pkt, f.Forward(ttl), w.ref.forward(p.from, p.pkt))
	if f.e != w.cached.walks[walkKey{from: p.from, dst: v4(p.pkt.Dst), src: v4(p.pkt.Src)}] {
		t.Fatalf("flow from %d %+v holds an entry the cache does not", p.from, p.pkt)
	}
	if len(w.cached.walks) > walkCacheCap {
		t.Fatalf("cache holds %d entries, cap %d", len(w.cached.walks), walkCacheCap)
	}
}

// addRule installs r on both planes.
func (w *walkWorld) addRule(t testing.TB, r Rule) {
	t.Helper()
	id := w.cached.AddFailure(r)
	if rid := w.ref.AddFailure(r); rid != id {
		t.Fatalf("planes out of step: rule ids %d and %d", id, rid)
	}
	w.rules = append(w.rules, id)
}

// run interprets data as a stream of operations against the world. Each
// operation consumes one opcode byte and the operand bytes it needs; a
// stream that runs dry reads zeros. The same interpreter backs the seeded
// test and the fuzz target.
func (w *walkWorld) run(t testing.TB, data []byte) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	pick := func(n int) int { return next() % n }
	packet := func() (topo.RouterID, Packet) {
		return w.froms[pick(len(w.froms))], Packet{
			Dst: w.addrs[pick(len(w.addrs))],
			Src: w.addrs[pick(len(w.addrs))],
			TTL: pick(71),
		}
	}
	top, gen := w.gen.Top, w.gen
	for len(data) > 0 {
		switch op := next() % 18; {
		case op < 4:
			from, pkt := packet()
			w.forward(t, from, pkt)
		case op == 4:
			// One round header at some TTL, through its handle.
			w.viaFlow(t, pick(len(w.round)), pick(71))
		case op < 8:
			// The round: every header by key and through its handle — the
			// same entry, so the second is a hit whatever the first was.
			for i, p := range w.round {
				w.forward(t, p.from, p.pkt)
				hits := w.cached.obs.cacheOutcomes[walkHit].Value()
				w.viaFlow(t, i, 0)
				if w.cached.obs.cacheOutcomes[walkHit].Value() != hits+1 {
					t.Fatalf("round header %d: asked by key, then through its handle, and the handle walked", i)
				}
			}
		case op == 8:
			// A flow group's run, the way traffic sends one: 0–300 packets of
			// one header through a Flow — a fresh one or a round handle —
			// against as many uncached walks.
			from, pkt := packet()
			nf := w.cached.Flow(from, pkt.Src, pkt.Dst)
			f := &nf
			if pick(2) == 0 {
				i := pick(len(w.round))
				from, pkt, f = w.round[i].from, w.round[i].pkt, &w.flows[i]
			}
			n := int64(next() + pick(46))
			got := f.ForwardN(n)
			var want [ForwardLoop + 1]int64
			for range n {
				want[w.ref.forward(from, Packet{Src: pkt.Src, Dst: pkt.Dst}).Reason]++
			}
			if got != want {
				t.Fatalf("run of %d from %d %+v: cached %v, walked %v", n, from, pkt, got, want)
			}
			if w.cached.seq != w.ref.seq {
				t.Fatalf("run of %d: cached plane at seq %d, walked plane at %d", n, w.cached.seq, w.ref.seq)
			}
		case op == 9:
			// A few scheduler events: forwards then land mid-convergence.
			for range 1 + pick(12) {
				w.clk.Step()
			}
		case op == 10:
			// Poison a transit AS on a stub's block, or undo it.
			o := gen.Stubs[pick(5)]
			cfg := bgp.OriginConfig{}
			if a := pick(len(gen.Transit) + 1); a < len(gen.Transit) {
				cfg.Pattern = topo.Path{o, gen.Transit[a], o}
			}
			w.eng.Announce(o, topo.Block(o), cfg)
		case op == 11:
			o := gen.Stubs[pick(5)]
			if pick(2) == 0 {
				w.eng.Withdraw(o, topo.Block(o))
			} else {
				w.eng.Originate(o, topo.Block(o))
			}
		case op == 12:
			// A more-specific of half the cached destinations comes or
			// goes, at its owner or at a transit AS that draws the traffic
			// to itself: the longest-prefix match changes shape under
			// walks whose own prefix did not move.
			b := gen.Stubs[pick(5)]
			who := b
			if pick(2) == 1 {
				who = gen.Transit[pick(len(gen.Transit))]
			}
			if pick(3) == 0 {
				w.eng.Withdraw(who, topo.ProductionPrefix(b))
			} else {
				w.eng.Announce(who, topo.ProductionPrefix(b), bgp.OriginConfig{})
			}
		case op == 13:
			// Rules whose address matchers admit all, some or none of the
			// cached headers: sources are hub addresses unless a random
			// packet says otherwise, destinations both kinds.
			a, b, c := gen.Transit[pick(len(gen.Transit))], gen.Stubs[pick(5)], gen.Stubs[pick(5)]
			switch pick(8) {
			case 0:
				w.addRule(t, BlackholeAS(a))
			case 1:
				w.addRule(t, BlackholeASTowards(a, topo.Block(b)))
			case 2:
				if nb := top.Neighbors(a); len(nb) > 0 {
					w.addRule(t, DropASLink(a, nb[pick(len(nb))]))
				}
			case 3:
				w.addRule(t, BlackholeRouter(top.AS(a).Routers[0]))
			case 4:
				w.addRule(t, Rule{AtAS: a, SrcWithin: topo.Block(b), TransitOnly: true})
			case 5:
				w.addRule(t, Rule{AtAS: a, DstWithin: topo.ProductionPrefix(b), SrcWithin: topo.Block(c)})
			case 6:
				if nb := top.Neighbors(a); len(nb) > 0 {
					w.addRule(t, Rule{FromAS: nb[pick(len(nb))], ToAS: a, DstWithin: topo.Block(b)})
				}
			case 7:
				w.addRule(t, Rule{AtRouter: top.AS(b).Routers[0], HasRouter: true, SrcWithin: topo.ProductionPrefix(c)})
			}
		case op == 14:
			// A lossy rule in each shape it can take: at an AS, at an AS for
			// through-traffic only, on an AS link into it, at its hub.
			a := gen.Transit[pick(len(gen.Transit))]
			r := LossyAS(a, float64(1+pick(9))/10, uint64(next()))
			switch nb := top.Neighbors(a); pick(4) {
			case 1:
				r.TransitOnly = true
			case 2:
				r.AtAS, r.FromAS, r.ToAS = 0, nb[pick(len(nb))], a
			case 3:
				r.AtAS, r.AtRouter, r.HasRouter = 0, top.AS(a).Routers[0], true
			}
			w.addRule(t, r)
		case op == 15 && len(w.rules) > 0:
			i := pick(len(w.rules))
			id := w.rules[i]
			w.rules = append(w.rules[:i], w.rules[i+1:]...)
			if !w.cached.RemoveFailure(id) || !w.ref.RemoveFailure(id) {
				t.Fatalf("rule %d not installed", id)
			}
		case op == 16 && pick(2) == 0:
			w.cached.ClearFailures()
			w.ref.ClearFailures()
			w.rules = w.rules[:0]
		case op == 17 && w.unseen < 8:
			// The cache overflows with the round's handles live: fill it
			// to the cap with slots no header owns, then ask for a header
			// it has never seen. Filling costs a millisecond, so a stream
			// gets a handful of these and no more.
			for i := 0; len(w.cached.walks) < walkCacheCap; i++ {
				w.cached.walks[walkKey{from: topo.RouterID(1<<30 + i)}] = new(walkEntry)
			}
			w.unseen++
			w.forward(t, w.froms[0], Packet{Src: addr4(250<<24 | w.unseen), Dst: w.addrs[1]})
			if len(w.cached.walks) != 1 {
				t.Fatalf("cache holds %d entries after overflowing, want the newcomer alone", len(w.cached.walks))
			}
		}
	}
}

// TestCachedForwardMatchesWalk drives a long seeded operation stream —
// forwards with random headers and TTLs and replays of one fixed round of
// headers by key and through held handles, interleaved with poison/unpoison
// announcements stepped a few events at a time, withdrawals, more-specifics
// coming and going, rule add/remove/clear both deterministic and lossy with
// and without address matchers, and cache overflows — and holds every cached
// answer to the uncached walk on the same state. It also checks the stream
// really exercised every branch of the validity rule: hits, misses, entries
// re-walked because what they read changed, entries that stood through a
// change at an AS they crossed, entries a rule change killed, and overflows.
func TestCachedForwardMatchesWalk(t *testing.T) {
	w := newWalkWorld(t, topogen.Config{Seed: 7, NumTransit: 12, NumStub: 48})
	data := make([]byte, 40_000)
	rand.New(rand.NewSource(16)).Read(data)
	w.run(t, data)

	o := &w.cached.obs
	for name, c := range map[string]*obs.Counter{
		"hits": o.cacheOutcomes[walkHit], "misses": o.cacheOutcomes[walkMiss],
		"stale entries": o.cacheStale, "kept entries": o.cacheKept,
		"rule kills": o.cacheRuleKills, "overflows": o.cacheFull,
	} {
		if c.Value() == 0 {
			t.Errorf("stream produced no cache %s", name)
		}
	}
	if h, m := o.cacheOutcomes[walkHit].Value(), o.cacheOutcomes[walkMiss].Value(); h+m > o.forwarded.Value() {
		t.Errorf("%d hits + %d misses exceed %d packets forwarded", h, m, o.forwarded.Value())
	}
}

// FuzzWalkCache hands the same interpreter to the fuzzer, on a world small
// enough to rebuild per input.
func FuzzWalkCache(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 5, 0, 0, 0, 1, 5}) // the same header twice
	f.Add([]byte{0, 1, 2, 3, 64, 0, 1, 2, 3, 1, 0, 1, 2, 3, 70})
	f.Add([]byte{10, 0, 1, 9, 3, 0, 2, 0, 0, 0, 9, 11, 0, 2, 0, 0, 0, 10, 0, 200})
	f.Add([]byte{13, 0, 1, 0, 0, 0, 0, 0, 0, 0, 14, 1, 4, 9, 0, 0, 0, 0, 0, 15, 1, 0, 0, 0, 0, 0, 16, 0})
	f.Add([]byte{8, 0, 2, 0, 0, 3, 1, 1, 1, 8, 0, 2, 0, 0, 3, 1, 1, 1})
	// The round, replayed after a poison, a rule, its removal and a clear.
	f.Add([]byte{5, 10, 0, 1, 9, 11, 5, 13, 0, 1, 0, 0, 5, 15, 0, 5, 13, 0, 1, 0, 3, 16, 0, 5})
	// The round around a more-specific announced at a transit AS and
	// withdrawn, stepped to the end each time.
	f.Add([]byte{5, 12, 1, 1, 0, 1, 9, 200, 9, 200, 9, 200, 5, 12, 1, 1, 0, 0, 9, 200, 9, 200, 5})
	// Rules that admit the round's destination, its source, and neither.
	f.Add([]byte{5, 13, 0, 1, 2, 5, 5, 13, 0, 2, 0, 6, 0, 5, 13, 0, 0, 3, 7, 5, 16, 0, 5})
	// An overflow between two rounds, then a rule the handles must feel.
	f.Add([]byte{5, 17, 5, 13, 0, 0, 0, 0, 5, 4, 3, 9, 17, 4, 3, 2, 16, 0, 5})
	// A through-traffic-only lossy AS, then the round and a run of 230 on a
	// round handle; lossy rules on an AS link and at a router, then a run of
	// 120 on a fresh handle and the round.
	f.Add([]byte{14, 0, 4, 7, 1, 5, 8, 0, 0, 0, 0, 0, 1, 200, 30})
	f.Add([]byte{14, 1, 2, 3, 2, 0, 14, 0, 6, 5, 3, 8, 1, 2, 0, 0, 1, 120, 0, 5})
	seeded := make([]byte, 600)
	rand.New(rand.NewSource(16)).Read(seeded)
	f.Add(seeded)
	f.Fuzz(func(t *testing.T, data []byte) {
		newWalkWorld(t, topogen.Config{Seed: 3, NumTier1: 3, NumTransit: 4, NumStub: 8}).run(t, data)
	})
}

// loopRIB routes every destination around a two-AS cycle, the forwarding
// loop a real RIB only shows mid-convergence: no walk ever ends for a
// reason other than running out of TTL.
type loopRIB struct{ a, b topo.ASN }

func (r loopRIB) NextHop(asn topo.ASN, _ netip.Addr) (topo.ASN, bool, bool) {
	if asn == r.a {
		return r.b, false, true
	}
	return r.a, false, true
}

func (loopRIB) RIBVersion() uint64           { return 0 }
func (loopRIB) FwdVersion(int) uint64        { return 0 }
func (loopRIB) DstVersion(netip.Addr) uint64 { return 0 }

// TestTTLPrefixOfFullWalk pins the argument that lets TTL stay out of the
// cache key: for every k, the fate at TTL k is the first k+1 hops of the
// default-TTL walk, expired, when that walk is longer than k, and the
// default-TTL walk itself otherwise — whatever way the walk ends. The cached
// plane is asked in traceroute order (k = 1, 2, …) and then backwards, so
// both the "one stored walk answers all" and the "stored walk expired too
// early, walk again" branches run. Under a lossy rule each packet has its
// own fate, so there it is held to the uncached walk alone: a packet whose
// TTL runs out at the rule's hop never meets the rule.
func TestTTLPrefixOfFullWalk(t *testing.T) {
	w := newWalkWorld(t, topogen.Config{Seed: 7, NumTransit: 12, NumStub: 48})
	top := w.gen.Top
	from := top.AS(w.gen.Stubs[0]).Routers[0]
	pkt := Packet{Src: top.Router(from).Addr, Dst: topo.ProductionAddr(w.gen.Stubs[9])}
	path, _ := w.ref.forward(from, pkt), w.cached.forward(from, pkt)
	if !path.Delivered() || len(path.Hops) < 4 {
		t.Fatalf("want a multi-hop delivered walk to cut, got %v", &path)
	}
	mid := path.Hops[len(path.Hops)/2]
	var crossing [2]Hop // the first inter-AS link of the walk
	for i := 1; i < len(path.Hops); i++ {
		if path.Hops[i-1].AS != path.Hops[i].AS {
			crossing = [2]Hop{path.Hops[i-1], path.Hops[i]}
			break
		}
	}

	const lossy DropReason = -1 // the case's rule draws each packet's fate
	check := func(t *testing.T, cached, ref *Plane, from topo.RouterID, pkt Packet, wantReason DropReason) {
		t.Helper()
		// Uncached on both planes, so their sequence numbers stay in step.
		full, _ := ref.forward(from, pkt), cached.forward(from, pkt)
		if wantReason != lossy && full.Reason != wantReason {
			t.Fatalf("default-TTL walk ended %v, the case wants %v", full.Reason, wantReason)
		}
		ks := make([]int, 0, 140)
		for k := 1; k <= 70; k++ {
			ks = append(ks, k)
		}
		for k := 70; k >= 1; k-- {
			ks = append(ks, k)
		}
		for _, k := range ks {
			p := pkt
			p.TTL = k
			got, walked := cached.Forward(from, p), ref.forward(from, p)
			if !reflect.DeepEqual(got, walked) || cached.seq != ref.seq {
				t.Fatalf("TTL %d: cached %+v (seq %d), walked %+v (seq %d)", k, got, cached.seq, walked, ref.seq)
			}
			// The 64-hop default walk says nothing about TTLs beyond it
			// when it expired itself (only the loop case does), nor about
			// another packet's draw.
			if wantReason == lossy || full.Reason == TTLExpired && k > DefaultTTL {
				continue
			}
			want := full
			if len(full.Hops) > k {
				last := full.Hops[k]
				want = Result{Reason: TTLExpired, Hops: full.Hops[:k+1], LastAS: last.AS, LastRouter: last.Router}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("TTL %d: got %+v, prefix rule says %+v", k, got, want)
			}
		}
	}

	for _, tc := range []struct {
		name   string
		rule   *Rule
		dst    netip.Addr
		reason DropReason
	}{
		{"delivered", nil, pkt.Dst, Delivered},
		{"blackholed at router", &Rule{AtRouter: mid.Router, HasRouter: true}, pkt.Dst, Blackhole},
		{"blackholed at crossing", &Rule{FromAS: crossing[0].AS, ToAS: crossing[1].AS}, pkt.Dst, Blackhole},
		{"lossy at router", &Rule{AtRouter: mid.Router, HasRouter: true, DropProb: 0.5, ProbSeed: 1}, pkt.Dst, lossy},
		{"lossy at crossing", &Rule{FromAS: crossing[0].AS, ToAS: crossing[1].AS, DropProb: 0.5, ProbSeed: 2}, pkt.Dst, lossy},
		{"no route", nil, topo.RouterAddr(topo.MaxASN, 0), NoRoute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w.cached.ClearFailures()
			w.ref.ClearFailures()
			if tc.rule != nil {
				w.cached.AddFailure(*tc.rule)
				w.ref.AddFailure(*tc.rule)
			}
			check(t, w.cached, w.ref, from, Packet{Src: pkt.Src, Dst: tc.dst}, tc.reason)
		})
	}

	t.Run("forwarding loop", func(t *testing.T) {
		ltop, _, _ := lineNet(t)
		rib := loopRIB{a: 1, b: 2}
		src := hub(ltop, 1)
		check(t, New(ltop, rib), New(ltop, rib), src,
			Packet{Src: ltop.Router(src).Addr, Dst: ltop.Router(hub(ltop, 3)).Addr}, TTLExpired)
	})
}

// staleRIB is an engine whose version counters all move at every
// RIBVersion read, so every walk the plane stored is stale when next asked
// for and is walked again.
type staleRIB struct {
	*bgp.Engine
	v uint64
}

func (r *staleRIB) RIBVersion() uint64           { r.v++; return r.v }
func (r *staleRIB) FwdVersion(int) uint64        { return r.v }
func (r *staleRIB) DstVersion(netip.Addr) uint64 { return r.v }

// TestWalkMissAllocations pins what a walk-cache miss costs the heap: its
// share of a slab chunk. A miss copies its hops into the current chunk and
// allocates a new one only when they do not fit, so over four chunks' worth
// of misses of L hops the plane allocates four chunks, one object per
// ⌊slabHops/L⌋ misses. The route reads (RIB.NextHop), the match context,
// the scratch hop buffer and the slot's stamps allocate nothing.
func TestWalkMissAllocations(t *testing.T) {
	w := newWalkWorld(t, topogen.Config{Seed: 7, NumTransit: 12, NumStub: 48})
	pl := New(w.gen.Top, &staleRIB{Engine: w.eng})
	pl.Instrument(obs.New())
	from := w.gen.Top.AS(w.gen.Stubs[0]).Routers[0]
	pkt := Packet{Src: w.gen.Top.Router(from).Addr, Dst: topo.ProductionAddr(w.gen.Stubs[9])}
	res := pl.Forward(from, pkt) // stores the slot, the first walk of a fresh chunk
	if !res.Delivered() || len(res.Hops) < 4 {
		t.Fatalf("want a multi-hop delivered walk, got %v", &res)
	}
	perChunk := slabHops / len(res.Hops)
	misses := 4 * perChunk
	e := pl.walks[walkKey{from: from, dst: v4(pkt.Dst), src: v4(pkt.Src)}]
	before := e.walks
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range misses {
		pl.Forward(from, pkt)
	}
	runtime.ReadMemStats(&m1)
	if walked := e.walks - before; walked != uint64(misses) {
		t.Fatalf("%d of %d Forwards walked: the test needs every one to miss", walked, misses)
	}
	// The first chunk has room for perChunk-1 of the misses, so the rest
	// fill three chunks and start a fourth. Fewer than three means the
	// hops were not copied anywhere.
	if objects := m1.Mallocs - m0.Mallocs; objects > 4 || objects < 3 {
		t.Fatalf("%d misses of %d hops allocated %d objects, want 4 (one %d-hop chunk per %d misses)",
			misses, len(res.Hops), objects, slabHops, perChunk)
	}
}
