package bgp

import (
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
	gen, err := topogen.Generate(topogen.Config{Seed: 1, NumTransit: 25, NumStub: 80})
	if err != nil {
		t.Fatal(err)
	}
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
