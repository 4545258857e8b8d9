package bgp

import (
	"runtime"
	"testing"

	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// warmedPoisonCycle fills a 25-transit, 80-stub graph over the prepended
// baseline of §3.1.1 and returns the engine with one poison → converge →
// unpoison → converge cycle, already run once (which interns the poisoned
// paths and sizes the event heap and the slab). The cycle reports how many
// scheduler events it stepped through.
func warmedPoisonCycle(t *testing.T) (*Engine, func() (events int)) {
	t.Helper()
	gen := cycleGraph(t)
	clk := simclock.New()
	e := New(gen.Top, clk, Config{Seed: 1})
	events := 0
	converge := func() {
		for !e.Quiescent() {
			if !clk.Step() {
				t.Fatal("no convergence")
			}
			events++
		}
	}
	for _, o := range gen.Stubs {
		e.Originate(o, topo.ProductionPrefix(o))
	}
	origin := gen.Stubs[0]
	pfx := topo.ProductionPrefix(origin)
	baseline := OriginConfig{Pattern: topo.Path{origin, origin, origin}}
	e.Announce(origin, pfx, baseline)
	converge()
	// Poison the first transit on the last stub's path to the origin.
	r, ok := e.BestRoute(gen.Stubs[len(gen.Stubs)-1], pfx)
	if !ok || len(r.Path) < 3 {
		t.Fatalf("no transit path to poison: %v", r)
	}
	poisoned := OriginConfig{Pattern: topo.Path{origin, r.Path[0], origin}}
	cycle := func() int {
		events = 0
		e.Announce(origin, pfx, poisoned)
		converge()
		e.Announce(origin, pfx, baseline)
		converge()
		return events
	}
	cycle()
	return e, cycle
}

// cycleGraph is warmedPoisonCycle's 25-transit, 80-stub graph.
func cycleGraph(t *testing.T) *topogen.Result {
	t.Helper()
	gen, err := topogen.Generate(topogen.Config{Seed: 1, NumTransit: 25, NumStub: 80})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestPoisonCycleAllocations pins the classic loop's per-update cost in heap
// objects. Deliveries and timers ride the scheduler's argument form and the
// in-flight slab, a changed best route overwrites its loc-RIB slot, and an
// export path the arena has seen before (every path of a warmed cycle) is
// found by key without being built — so a warmed poison → converge →
// unpoison → converge cycle allocates the two Announce calls' own origin
// entries and nothing per update (6 objects for 363 updates on this graph,
// 0.02 each). It measured 0.79 while every changed best was materialized as
// a *Route and every export path built before it was looked up, and 9.2 with
// a closure and a *event per delivery and per timer.
func TestPoisonCycleAllocations(t *testing.T) {
	e, cycle := warmedPoisonCycle(t)
	before := e.TotalUpdatesSent()
	cycle()
	updates := e.TotalUpdatesSent() - before
	if updates < 100 {
		t.Fatalf("cycle sent only %d updates: not a poison cycle", updates)
	}
	const ceiling = 0.1
	allocs := testing.AllocsPerRun(5, func() { cycle() })
	if per := allocs / float64(updates); per > ceiling {
		t.Errorf("poison cycle: %.0f allocs for %d updates = %.2f per update, want <= %.2f", allocs, updates, per, ceiling)
	} else {
		t.Logf("poison cycle: %.0f allocs for %d updates = %.2f per update", allocs, updates, per)
	}
}

// TestPoisonCycleEventsPerUpdate pins the same cycle's cost in scheduler
// events. An update costs its delivery, and a flush that sends costs the
// phase tick that led to it; the MRAI interval that follows is remembered,
// not scheduled, and each convergence adds at most one horizon event to wait
// out the last such interval. So an update costs at most two events, plus
// the horizons — fewer where a flush carries several (2.01 on this graph,
// where nearly every flush carries one). A session that was kicked with
// nothing to send costs none. With an event per MRAI interval the cycle
// measured 3.00 events per update, and with an armed timer for every kicked
// session besides 4.15.
func TestPoisonCycleEventsPerUpdate(t *testing.T) {
	e, cycle := warmedPoisonCycle(t)
	before := e.TotalUpdatesSent()
	events := cycle()
	updates := e.TotalUpdatesSent() - before
	if updates < 100 {
		t.Fatalf("cycle sent only %d updates: not a poison cycle", updates)
	}
	const ceiling = 2.05
	if per := float64(events) / float64(updates); per > ceiling {
		t.Errorf("poison cycle: %d events for %d updates = %.2f per update, want <= %.2f", events, updates, per, ceiling)
	} else {
		t.Logf("poison cycle: %d events for %d updates = %.2f per update", events, updates, per)
	}
}

// TestInflightSlabBounded pins the in-flight slab as a high-water mark, not a
// log: over 60 poison/unpoison cycles it never holds more slots than the
// largest number of updates the test itself sees in flight at once (sent
// minus received, sampled after every scheduler event — the count only rises
// inside a flush, which is one event), and at every quiescent point every
// slot is back on the free list.
func TestInflightSlabBounded(t *testing.T) {
	gen := hundredASTopo(t)
	clk := simclock.New()
	e := New(gen.Top, clk, Config{Seed: 11, Obs: obs.New()})
	peak := 0
	converge := func(when string) {
		t.Helper()
		for !e.Quiescent() {
			if !clk.Step() {
				t.Fatalf("%s: no convergence", when)
			}
			flying := int(e.obs.updatesSent.Value() - e.obs.updatesReceived.Value())
			peak = max(peak, flying)
			if len(e.inflight) > peak {
				t.Fatalf("%s: slab holds %d slots, at most %d updates were ever in flight", when, len(e.inflight), peak)
			}
		}
		if len(e.inflightFree) != len(e.inflight) {
			t.Fatalf("%s: quiescent with %d of %d slots free", when, len(e.inflightFree), len(e.inflight))
		}
	}
	for _, o := range gen.Stubs[:8] {
		e.Announce(o, topo.ProductionPrefix(o), OriginConfig{Pattern: topo.Path{o, o, o}})
	}
	converge("fill")
	filled := len(e.inflight)
	origin := gen.Stubs[0]
	pfx := topo.ProductionPrefix(origin)
	for i := 0; i < 60; i++ {
		victim := gen.Transit[i%len(gen.Transit)]
		e.Announce(origin, pfx, OriginConfig{Pattern: topo.Path{origin, victim, origin}})
		converge("poison")
		e.Announce(origin, pfx, OriginConfig{Pattern: topo.Path{origin, origin, origin}})
		converge("unpoison")
	}
	if peak < 10 {
		t.Fatalf("at most %d updates in flight at once: the cycles exercised nothing", peak)
	}
	t.Logf("slab %d slots after the fill, %d after 60 cycles; peak in flight %d", filled, len(e.inflight), peak)
}

// fill originates every stub's production prefix on a fresh engine over gen
// and converges, reporting the heap objects the origination and convergence
// allocated (New is outside the count) and the loc-RIB routes installed.
func fill(t *testing.T, gen *topogen.Result) (e *Engine, objects uint64, routes int) {
	t.Helper()
	clk := simclock.New()
	e = New(gen.Top, clk, Config{Seed: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range gen.Stubs {
		e.Originate(o, topo.ProductionPrefix(o))
	}
	for !e.Quiescent() {
		if !clk.Step() {
			t.Fatal("no convergence")
		}
	}
	runtime.ReadMemStats(&after)
	routes, _ = e.RIBSizes()
	return e, after.Mallocs - before.Mallocs, routes
}

// TestFillAllocations pins a fill from empty's cost in heap objects per
// loc-RIB route installed. A new export path is carved from the arena's
// 8 KB slab chunks and a flush reads its pending set into one engine-owned
// buffer, so what is left grows with the tables, not with the updates:
// 1 260 objects for the 8 800 routes of this graph (110 ASes × 80
// prefixes), 0.14 each. It measured 0.50 (4 387 objects) while every new
// export path was an array of its own, and 0.53 (4 663) while each flush
// collected its pending set into a fresh slice. The ceiling is the measured
// value with 40 % of headroom, 0.14 × 1.4 ≈ 0.2, still well under both.
func TestFillAllocations(t *testing.T) {
	gen := cycleGraph(t)
	const ceiling = 0.2
	least := ^uint64(0)
	var routes int
	for range 3 { // the fewest of three: a stray allocation elsewhere only adds
		var objects uint64
		_, objects, routes = fill(t, gen)
		least = min(least, objects)
	}
	if routes < 1000 {
		t.Fatalf("fill installed only %d routes: not a table", routes)
	}
	if per := float64(least) / float64(routes); per > ceiling {
		t.Errorf("fill: %d objects for %d routes = %.2f per route, want <= %.2f", least, routes, per, ceiling)
	} else {
		t.Logf("fill: %d objects for %d routes = %.2f per route", least, routes, per)
	}
}

// TestArenaPathsDoNotAlias appends to every path the engine hands out after
// a fill — each speaker's best routes, through BestRoute and Lookup, and
// every session's export path — and requires every interned path to read as
// it did before. Export paths share 8 KB slab chunks, so an append through
// one that is not capped at its length would write over the next path.
func TestArenaPathsDoNotAlias(t *testing.T) {
	gen := cycleGraph(t)
	e, _, _ := fill(t, gen)
	var handed []topo.Path
	for _, asn := range e.asns {
		s := e.speakers[asn]
		for _, o := range gen.Stubs {
			pfx := topo.ProductionPrefix(o)
			if r, ok := e.BestRoute(asn, pfx); ok {
				handed = append(handed, r.Path)
			}
			if r, ok := e.Lookup(asn, pfx.Addr()); ok {
				handed = append(handed, r.Path)
			}
			id, _ := e.prefixes.lookup(pfx)
			for i := range s.out {
				if ex, ok := s.exportTo(i, id); ok {
					handed = append(handed, ex.path)
				}
			}
		}
	}
	want := make([]topo.Path, len(e.arena.paths))
	for i, p := range e.arena.paths {
		want[i] = p.Clone()
	}
	for _, p := range handed {
		_ = append(p, 0xdead, 0xbeef)
	}
	bad := 0
	for i, p := range e.arena.paths {
		if !p.Equal(want[i]) {
			if bad++; bad <= 5 {
				t.Errorf("interned path %d reads %v after the appends, was %v", i+1, p, want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d interned paths changed under %d appends", bad, len(want), len(handed))
	}
}
