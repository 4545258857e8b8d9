package bgp

import (
	"testing"

	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// TestPoisonCycleAllocations pins the classic loop's per-update cost in heap
// objects. Deliveries and timers ride the scheduler's argument form and the
// in-flight slab, so a warmed poison → converge → unpoison → converge cycle
// allocates only what a changed best route needs (one materialized *Route)
// plus the two Announce calls' own origin entries — well under one object
// per update sent (0.79 on this graph). With a closure and a *event per
// delivery and per timer, as before, the same cycle measured 9.2.
func TestPoisonCycleAllocations(t *testing.T) {
	gen, err := topogen.Generate(topogen.Config{Seed: 1, NumTransit: 25, NumStub: 80})
	if err != nil {
		t.Fatal(err)
	}
	e := New(gen.Top, simclock.New(), Config{Seed: 1})
	converge := func() {
		if !e.Converge(50_000_000) {
			t.Fatal("no convergence")
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
	cycle := func() {
		e.Announce(origin, pfx, poisoned)
		converge()
		e.Announce(origin, pfx, baseline)
		converge()
	}
	cycle() // interns the poisoned paths, sizes the event heap and the slab
	before := e.TotalUpdatesSent()
	cycle()
	updates := e.TotalUpdatesSent() - before
	if updates < 100 {
		t.Fatalf("cycle sent only %d updates: not a poison cycle", updates)
	}
	const ceiling = 1.0
	allocs := testing.AllocsPerRun(5, cycle)
	if per := allocs / float64(updates); per > ceiling {
		t.Errorf("poison cycle: %.0f allocs for %d updates = %.2f per update, want <= %.1f", allocs, updates, per, ceiling)
	} else {
		t.Logf("poison cycle: %.0f allocs for %d updates = %.2f per update", allocs, updates, per)
	}
}
