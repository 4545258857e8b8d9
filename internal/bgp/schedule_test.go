package bgp

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"lifeguard/internal/bgp/refsolve"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// hundredASTopo builds a small Internet-like topology: big enough that many
// speakers are mid-update at once, small enough to converge quickly.
func hundredASTopo(t *testing.T) *topogen.Result {
	t.Helper()
	gen, err := topogen.Generate(topogen.Config{
		NumTier1:   5,
		NumTransit: 25,
		NumStub:    70,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// bestPaths lists (AS, prefix, best path) for every selected route in
// canonical text: the routing outcome alone.
func bestPaths(e *Engine) string {
	var b strings.Builder
	for _, asn := range e.top.ASNs() {
		s := e.Speaker(asn)
		for _, p := range e.Prefixes() {
			if r, ok := s.Best(p); ok {
				fmt.Fprintf(&b, "AS%d %v via %v\n", asn, p, r.Path)
			}
		}
	}
	return b.String()
}

// ribDigest is bestPaths plus every AS's update count — what the schedule
// left behind as well as where it ended — so two runs can be compared
// byte-for-byte.
func ribDigest(e *Engine) string {
	var b strings.Builder
	b.WriteString(bestPaths(e))
	for _, asn := range e.top.ASNs() {
		fmt.Fprintf(&b, "AS%d sent=%d\n", asn, e.UpdatesSentBy(asn))
	}
	return b.String()
}

// churn exercises announcement, convergence, poisoning, session failure and
// recovery, and withdrawal — the full event mix.
func churn(t *testing.T, e *Engine, gen *topogen.Result) {
	t.Helper()
	origins := gen.Stubs[:4]
	for _, asn := range origins {
		e.Originate(asn, topo.ProductionPrefix(asn))
	}
	if !e.Converge(100_000_000) {
		t.Fatal("initial convergence did not quiesce")
	}
	// Poison: origin 0 inserts a transit AS into its announced path.
	o := origins[0]
	e.Announce(o, topo.ProductionPrefix(o), OriginConfig{
		Pattern: topo.Path{o, gen.Transit[0], o},
	})
	if !e.Converge(100_000_000) {
		t.Fatal("post-poison convergence did not quiesce")
	}
	// Session failure between two tier-1s (clique: always adjacent),
	// then recovery.
	a, b := gen.Tier1s[0], gen.Tier1s[1]
	e.SetAdjacencyDown(a, b, true)
	if !e.Converge(100_000_000) {
		t.Fatal("post-failure convergence did not quiesce")
	}
	e.SetAdjacencyDown(a, b, false)
	// Withdraw one origin entirely.
	e.Withdraw(origins[1], topo.ProductionPrefix(origins[1]))
	if !e.Converge(100_000_000) {
		t.Fatal("final convergence did not quiesce")
	}
}

// dampeningFlaps re-announces one prefix with rotating poisons faster than
// the penalty decays, then lets the reuse timers fire.
func dampeningFlaps(t *testing.T, e *Engine, gen *topogen.Result) {
	t.Helper()
	o := gen.Stubs[0]
	p := topo.ProductionPrefix(o)
	for i := 0; i < 6; i++ {
		e.Announce(o, p, OriginConfig{Pattern: topo.Path{o, gen.Transit[i%3], o}})
		if !e.Converge(100_000_000) {
			t.Fatal("convergence did not quiesce")
		}
		e.Clock().RunFor(2 * time.Minute)
	}
	e.Clock().RunFor(3 * time.Hour)
}

// TestRIBVersionCountsBestChanges holds RIBVersion to the number of loc-RIB
// changes OnBestChange reported, mid-propagation and at quiescence. The data
// plane's walk cache treats two equal readings as "no Lookup result can have
// changed" (FuzzWalkCache's epoch argument), so a change that did not advance
// the version would serve stale walks. PropJitter -1 is the repo's "no
// jitter" convention (experiments and the rig determinism test pass it).
func TestRIBVersionCountsBestChanges(t *testing.T) {
	gen := hundredASTopo(t)
	for _, tc := range []struct {
		name       string
		propJitter float64
	}{
		{"default jitter", 0},
		{"no jitter", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(gen.Top, simclock.New(), Config{Seed: 11, PropJitter: tc.propJitter})
			var changes uint64
			e.OnBestChange = func(BestChange) { changes++ }
			checkVersion := func(when string) {
				t.Helper()
				if v := e.RIBVersion(); v != changes || v == 0 {
					t.Fatalf("%s: RIBVersion %d after %d loc-RIB changes", when, v, changes)
				}
			}
			early := gen.Stubs[10]
			e.Originate(early, topo.ProductionPrefix(early))
			e.Converge(200) // far short of quiescence
			if e.Quiescent() {
				t.Fatal("want the first prefix still propagating")
			}
			checkVersion("mid-propagation")
			churn(t, e, gen)
			checkVersion("after churn")
		})
	}
}

// forwardsTo turns a route lookup at asn into where asn sends the packet: 0
// nowhere (no route), asn itself for an originated route, the next-hop AS
// otherwise.
func forwardsTo(asn topo.ASN) func(*Route, bool) topo.ASN {
	return func(r *Route, ok bool) topo.ASN {
		if !ok {
			return 0
		}
		if nh, ok := r.NextHop(); ok {
			return nh
		}
		return asn
	}
}

// TestFwdVersionCountsForwardingChanges holds each AS's FwdVersion to the
// number of OnBestChange callbacks at that AS that changed what a packet
// does there: the prefix gained or lost its route, the route became or
// ceased to be Originated, or its next-hop AS changed. The data plane's walk
// cache keeps a walk while the FwdVersion of every AS it crossed holds still,
// so an uncounted change would serve stale walks; and the version must stay
// behind RIBVersion, or it spares the cache nothing.
func TestFwdVersionCountsForwardingChanges(t *testing.T) {
	gen := hundredASTopo(t)
	e := New(gen.Top, simclock.New(), Config{Seed: 11})
	type slot struct {
		as     topo.ASN
		prefix netip.Prefix
	}
	// Where each (AS, prefix) sends a packet. The callback's Path cannot
	// say (an originated route's is empty), so it reads the route just
	// written.
	sendsTo := map[slot]topo.ASN{}
	want := map[topo.ASN]uint64{}
	e.OnBestChange = func(c BestChange) {
		to := forwardsTo(c.AS)(e.BestRoute(c.AS, c.Prefix))
		k := slot{c.AS, c.Prefix}
		if to != sendsTo[k] {
			want[c.AS]++
		}
		sendsTo[k] = to
	}
	check := func(when string) {
		t.Helper()
		var total uint64
		for i, asn := range gen.Top.ASNs() {
			if got := e.FwdVersion(i); got != want[asn] {
				t.Fatalf("%s: AS%d FwdVersion %d after %d forwarding changes", when, asn, got, want[asn])
			}
			total += want[asn]
		}
		if total == 0 || total >= e.RIBVersion() {
			t.Fatalf("%s: %d forwarding changes of %d loc-RIB changes: want some, and fewer", when, total, e.RIBVersion())
		}
	}
	// The prepended baseline a poison is laid over (§3.1.1), so that the
	// poison below rewrites paths without moving next hops at most ASes.
	o := gen.Stubs[0]
	e.Announce(o, topo.ProductionPrefix(o), OriginConfig{Pattern: topo.Path{o, o, o}})
	if !e.Converge(100_000_000) {
		t.Fatal("baseline did not quiesce")
	}
	early := gen.Stubs[10]
	e.Originate(early, topo.ProductionPrefix(early))
	e.Converge(200) // far short of quiescence
	if e.Quiescent() {
		t.Fatal("want the prefix still propagating")
	}
	check("mid-propagation")
	churn(t, e, gen)
	check("after churn")
	// An AS starts originating a prefix it had learned, then stops.
	thief := gen.Stubs[20]
	e.Originate(thief, topo.ProductionPrefix(o))
	e.Converge(100_000_000)
	e.Withdraw(thief, topo.ProductionPrefix(o))
	e.Converge(100_000_000)
	check("after a second origin came and went")
}

// TestPoisonMovesOnlyTheASesThatRoutedThroughIt is §3.1.1 on the fig. 2
// diamond: over the prepended O-O-O baseline, poisoning O-A-O rewrites the
// path attribute everywhere but changes forwarding only at A, which loses
// the route, and at the ASes that routed through A — E moves to D, captive F
// loses the route. B, C and D, which reached O without A, forward as before:
// their loc-RIBs were rewritten and their FwdVersion did not move.
func TestPoisonMovesOnlyTheASesThatRoutedThroughIt(t *testing.T) {
	const O, B, A, C, D, E, F = topo.ASN(10), topo.ASN(20), topo.ASN(30), topo.ASN(40), topo.ASN(50), topo.ASN(60), topo.ASN(70)
	top := fig2Topo(t)
	e, _ := newEngine(t, top)
	prod := topo.ProductionPrefix(O)
	e.Announce(O, prod, OriginConfig{Pattern: topo.Path{O, O, O}})
	converge(t, e)

	before := map[topo.ASN]uint64{}
	for i, asn := range top.ASNs() {
		before[asn] = e.FwdVersion(i)
	}
	rewritten := map[topo.ASN]bool{}
	e.OnBestChange = func(c BestChange) { rewritten[c.AS] = true }
	e.Announce(O, prod, OriginConfig{Pattern: topo.Path{O, A, O}})
	converge(t, e)

	routedThroughA := map[topo.ASN]bool{A: true, E: true, F: true}
	for i, asn := range top.ASNs() {
		if !rewritten[asn] && asn != O { // O's own route is originated either way
			t.Errorf("AS%d: the poison did not rewrite its route", asn)
		}
		if moved := e.FwdVersion(i) != before[asn]; moved != routedThroughA[asn] {
			t.Errorf("AS%d: FwdVersion moved = %v, routed through A = %v", asn, moved, routedThroughA[asn])
		}
	}
}

// TestDstVersionMovesWithForwardingAnywhere holds DstVersion(addr) to the
// number of OnBestChange callbacks, at any AS, that changed what a packet
// does there for a prefix covering addr — every covering prefix, not only
// the one addr matches, and also one first interned after addr was last
// read — and checks the use the walk cache makes of it against Lookup
// itself: if any AS forwards addr differently than at the last reading, the
// version has moved. Then the other direction, where it is exact: a fig. 2
// poison moves it for the production /24's addresses and for no other.
func TestDstVersionMovesWithForwardingAnywhere(t *testing.T) {
	gen := hundredASTopo(t)
	e := New(gen.Top, simclock.New(), Config{Seed: 11})
	type slot struct {
		as     topo.ASN
		prefix netip.Prefix
	}
	sendsTo := map[slot]topo.ASN{}
	changes := map[netip.Prefix]uint64{}
	e.OnBestChange = func(c BestChange) {
		to := forwardsTo(c.AS)(e.BestRoute(c.AS, c.Prefix))
		k := slot{c.AS, c.Prefix}
		if to != sendsTo[k] {
			changes[c.Prefix]++
		}
		sendsTo[k] = to
	}
	// Addresses under one prefix, under two, and under one that does not
	// exist yet when they are first read.
	late := gen.Stubs[10]
	var addrs []netip.Addr
	for _, asn := range append(gen.Stubs[:5:5], late) {
		addrs = append(addrs, topo.ProductionAddr(asn), topo.SentinelProbeAddr(asn), topo.RouterAddr(asn, 0))
	}
	// Where every AS sends a packet for addr (0: nowhere).
	forwarding := func(addr netip.Addr) []topo.ASN {
		out := make([]topo.ASN, 0, gen.Top.NumASes())
		for _, asn := range gen.Top.ASNs() {
			out = append(out, forwardsTo(asn)(e.Lookup(asn, addr)))
		}
		return out
	}
	lastVer, lastFwd := map[netip.Addr]uint64{}, map[netip.Addr][]topo.ASN{}
	moved := 0
	check := func(when string) {
		t.Helper()
		for _, addr := range addrs {
			var want uint64
			for p, n := range changes {
				if p.Contains(addr) {
					want += n
				}
			}
			got, fwd := e.DstVersion(addr), forwarding(addr)
			if got != want {
				t.Fatalf("%s: DstVersion(%v) = %d after %d forwarding changes on the prefixes covering it", when, addr, got, want)
			}
			if last, seen := lastFwd[addr]; seen && !slices.Equal(last, fwd) {
				moved++
				if got == lastVer[addr] {
					t.Fatalf("%s: some AS forwards %v differently and DstVersion held still at %d", when, addr, got)
				}
			}
			lastVer[addr], lastFwd[addr] = got, fwd
		}
	}
	for _, asn := range gen.Stubs[:5] {
		e.Originate(asn, topo.Block(asn))
	}
	o := gen.Stubs[0]
	e.Announce(o, topo.ProductionPrefix(o), OriginConfig{Pattern: topo.Path{o, o, o}})
	if !e.Converge(100_000_000) {
		t.Fatal("baseline did not quiesce")
	}
	check("baseline")
	// late's prefixes are first interned here, after its addresses were read.
	e.Originate(late, topo.Block(late))
	e.Converge(200) // far short of quiescence
	if e.Quiescent() {
		t.Fatal("want the prefix still propagating")
	}
	check("mid-propagation")
	churn(t, e, gen)
	check("after churn")
	// A more-specific of an address's only prefix appears at another AS,
	// and goes: the longest match changes shape under the address.
	thief := gen.Stubs[20]
	e.Originate(thief, topo.ProductionPrefix(late))
	e.Converge(100_000_000)
	check("a more-specific appeared elsewhere")
	e.Withdraw(thief, topo.ProductionPrefix(late))
	e.Converge(100_000_000)
	check("and went")
	if moved == 0 {
		t.Fatal("no address was ever forwarded differently: the soundness check never ran")
	}

	const O, A = topo.ASN(10), topo.ASN(30)
	top := fig2Topo(t)
	e, _ = newEngine(t, top)
	for _, asn := range top.ASNs() {
		e.Originate(asn, topo.Block(asn))
	}
	e.Announce(O, topo.ProductionPrefix(O), OriginConfig{Pattern: topo.Path{O, O, O}})
	e.Announce(O, topo.SentinelPrefix(O), OriginConfig{})
	converge(t, e)
	before := map[netip.Addr]uint64{}
	for _, asn := range top.ASNs() {
		for _, addr := range []netip.Addr{topo.ProductionAddr(asn), topo.SentinelProbeAddr(asn), topo.RouterAddr(asn, 0)} {
			before[addr] = e.DstVersion(addr)
		}
	}
	e.Announce(O, topo.ProductionPrefix(O), OriginConfig{Pattern: topo.Path{O, A, O}})
	converge(t, e)
	for addr, v := range before {
		if moved := e.DstVersion(addr) != v; moved != (addr == topo.ProductionAddr(O)) {
			t.Errorf("poisoning O's production prefix: DstVersion(%v) moved = %v", addr, moved)
		}
	}
}

// TestQuiescentStateIndependentOfSchedule: Gao–Rexford policies with the
// deterministic tie-break have a unique stable state, so whatever order the
// seed and jitter deliver updates in, churn must end on the same best paths,
// and on refsolve's. The update counts must differ somewhere, or the
// schedules never did.
func TestQuiescentStateIndependentOfSchedule(t *testing.T) {
	gen := hundredASTopo(t)
	var want string
	var e *Engine
	sent := map[int]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		for _, jitter := range []float64{0, -1, 0.9} {
			e = New(gen.Top, simclock.New(), Config{Seed: seed, PropJitter: jitter})
			churn(t, e, gen)
			got := bestPaths(e)
			if want == "" {
				want = got
			}
			if got == "" || got != want {
				t.Fatalf("seed %d PropJitter %v: quiescent best paths differ from seed 1's", seed, jitter)
			}
			sent[e.TotalUpdatesSent()] = true
		}
	}
	if len(sent) < 2 {
		t.Fatalf("every run sent the same number of updates (%v): the schedules did not differ", sent)
	}

	// The schedules could all agree on a wrong state: hold it to refsolve
	// for the four prefixes churn leaves behind, every session up.
	origins := map[netip.Prefix]map[topo.ASN]refsolve.Origin{}
	for _, asn := range gen.Top.ASNs() {
		for _, o := range e.Origins(asn) {
			if origins[o.Prefix] == nil {
				origins[o.Prefix] = map[topo.ASN]refsolve.Origin{}
			}
			origins[o.Prefix][asn] = refsolve.Origin(o.Config)
		}
	}
	for _, o := range gen.Stubs[:4] {
		p := topo.ProductionPrefix(o)
		sol, err := refsolve.Solve(gen.Top, nil, origins[p])
		if err != nil {
			t.Fatal(err)
		}
		for _, asn := range gen.Top.ASNs() {
			var got *refsolve.Route
			if r, ok := e.BestRoute(asn, p); ok {
				got = &refsolve.Route{Path: r.Path, From: r.From, Rel: r.Rel, LocalPref: r.LocalPref, Originated: r.Originated}
			}
			if !got.Equal(sol[asn]) {
				t.Fatalf("AS%d %v: every schedule ends on %+v, refsolve's stable state is %+v", asn, p, got, sol[asn])
			}
		}
	}
}

// TestPathInterning checks the arena is actually shared: across a ~100-AS
// topology with several origins, the number of distinct interned paths must
// be far below the number of adj-RIB-in entries. It then checks the keys on a
// fresh arena: ASNs that agree in their low 16 bits still make different
// paths, and equal contents get one handle whether they enter whole (an
// origin pattern, internPath) or as a hop prepended to a held path (an
// export, internPrepended).
func TestPathInterning(t *testing.T) {
	gen := hundredASTopo(t)
	e := New(gen.Top, simclock.New(), Config{Seed: 2})
	for _, asn := range gen.Stubs[:4] {
		e.Originate(asn, topo.ProductionPrefix(asn))
	}
	if !e.Converge(100_000_000) {
		t.Fatal("convergence did not quiesce")
	}
	_, entries := e.RIBSizes()
	arena := e.PathArenaSize()
	if entries == 0 || arena == 0 {
		t.Fatalf("no routes: entries=%d arena=%d", entries, arena)
	}
	if arena*2 > entries {
		t.Fatalf("interning ineffective: %d distinct paths for %d entries", arena, entries)
	}

	wide := newArena()
	const hi, lo = topo.ASN(0x1_fde9), topo.ASN(0x2_fde9) // low 16 bits 65001
	for _, pair := range [][2]topo.Path{
		{{hi, 7}, {lo, 7}}, // differ in the first hop
		{{7, hi}, {7, lo}}, // differ in the rest
	} {
		if x, y := wide.internPath(pair[0]), wide.internPath(pair[1]); x == y {
			t.Errorf("%v and %v share handle %d", pair[0], pair[1], x)
		}
	}
	// The same contents through both doors, in either order.
	for _, whole := range []topo.Path{{2, 3, 3, 3}, {5, 4, hi, 4}, {6}} {
		self, tail := whole[0], whole[1:]
		a := newArena()
		exported := a.internPrepended(self, a.internPath(tail))
		if got := a.internPath(whole); got != exported {
			t.Errorf("%v: handle %d as an export, then %d as a pattern", whole, exported, got)
		}
		if got := a.path(exported); !got.Equal(whole) {
			t.Errorf("%v: handle %d holds %v", whole, exported, got)
		}
		b := newArena()
		pattern := b.internPath(whole)
		if got := b.internPrepended(self, b.internPath(tail)); got != pattern {
			t.Errorf("%v: handle %d as a pattern, then %d as an export", whole, pattern, got)
		}
	}
}

// TestJitterAboveOneRejected: New, not a simclock "scheduling before now"
// panic mid-convergence, must reject a jitter fraction above 1.
func TestJitterAboveOneRejected(t *testing.T) {
	top := lineTopo(t)
	for _, tc := range []struct {
		cfg  Config
		want string // substring of New's panic; "" means accepted
	}{
		{Config{PropJitter: 3}, "PropJitter 3"},
		{Config{MRAIJitter: 1.5}, "MRAIJitter 1.5"},
		{Config{PropJitter: 1, MRAIJitter: 1}, ""},
		{Config{PropJitter: -1, MRAIJitter: -1}, ""},
	} {
		got := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			New(top, simclock.New(), tc.cfg)
			return ""
		}()
		if (got == "") != (tc.want == "") || !strings.Contains(got, tc.want) {
			t.Errorf("%+v: New panicked with %q, want %q", tc.cfg, got, tc.want)
		}
	}
}
