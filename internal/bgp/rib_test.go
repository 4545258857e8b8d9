package bgp

import (
	"reflect"
	"testing"

	"lifeguard/internal/topo"
)

// TestLocEntryPointerFree walks the stored RIB entry types and fails on any
// field the collector would have to follow. What a failure costs: a
// []locEntry or a slot table with a pointer in it goes back on the
// collector's scan list — at 10k ASes that is tens of millions of words
// re-marked every cycle (DESIGN.md §4). A slot is stored once per (prefix,
// session), so its size is bounded too: the table is the engine's largest.
func TestLocEntryPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: the collector would scan every RIB entry for it", path, ty.Kind())
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("locEntry", reflect.TypeOf(locEntry{}))
	walk("adjEntry", reflect.TypeOf(adjEntry{}))
	walk("slot", reflect.TypeOf(slot{}))
	if size := reflect.TypeOf(locEntry{}).Size(); size > 32 {
		t.Errorf("locEntry is %d bytes, want at most 32", size)
	}
	if size := reflect.TypeOf(slot{}).Size(); size > 12 {
		t.Errorf("slot is %d bytes, want at most 12", size)
	}
}

// TestRouteFlipsBack holds the loc-RIB's Route memo to its contract across
// the flips a poison makes: a slot that returns to the route it held before
// the last change hands back that Route, pointer for pointer; one that
// returns after two changes gets a new Route reading the same; a Route held
// through all of it still reads what it read when it was returned; and
// Best, BestRoute and Lookup return one pointer at every step.
//
// AS1 originates and is a customer of AS2 and AS3, which peer. AS2 holds
// three routes in turn: A, 1's plain [1]; B, [3 1] via its peer while 1
// withholds the prefix from it; C, 1's prepended [1 1 1], from the same
// neighbor as A but on another path.
func TestRouteFlipsBack(t *testing.T) {
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 3; asn++ {
		b.AddAS(asn, "")
	}
	b.Provider(1, 2)
	b.Provider(1, 3)
	b.Peer(2, 3)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := newEngine(t, top)
	p, addr := topo.ProductionPrefix(1), topo.ProductionAddr(1)
	announce := func(cfg OriginConfig) {
		e.Announce(1, p, cfg)
		converge(t, e)
	}
	plain := OriginConfig{}
	withhold := OriginConfig{Withhold: map[topo.ASN]bool{2: true}}
	prepend := OriginConfig{Pattern: topo.Path{1, 1, 1}}
	read := func(step string, from topo.ASN, path topo.Path) *Route {
		t.Helper()
		r, ok := e.BestRoute(2, p)
		again, _ := e.BestRoute(2, p)
		lpm, ok2 := e.Lookup(2, addr)
		if !ok || !ok2 || again != r || lpm != r {
			t.Fatalf("%s: BestRoute %p (%v), again %p, Lookup %p (%v): want one route, one pointer", step, r, ok, again, lpm, ok2)
		}
		if r.From != from || !r.Path.Equal(path) || r.Prefix != p || r.Originated {
			t.Fatalf("%s: AS2 reads %+v, want a route from AS%d on %v", step, *r, from, path)
		}
		return r
	}

	announce(plain)
	a := read("A", 1, topo.Path{1})
	held := *a
	announce(withhold)
	bRoute := read("A→B", 3, topo.Path{3, 1})
	if bRoute == a {
		t.Fatal("A→B: the Route of A describes B")
	}
	announce(plain)
	if got := read("A→B→A", 1, topo.Path{1}); got != a {
		t.Fatalf("A→B→A: got %p, want A's Route %p back", got, a)
	}
	announce(withhold)
	if got := read("A→B→A→B", 3, topo.Path{3, 1}); got != bRoute {
		t.Fatalf("A→B→A→B: got %p, want B's Route %p back", got, bRoute)
	}
	announce(prepend)
	c := read("…→C", 1, topo.Path{1, 1, 1})
	if c == a || c == bRoute {
		t.Fatal("…→C: an earlier Route describes C")
	}
	announce(plain)
	a2 := read("…→C→A", 1, topo.Path{1})
	if a2 == a || a2 == c || a2 == bRoute {
		t.Fatalf("…→C→A: got %p, want a Route built anew (A was %p, B %p, C %p)", a2, a, bRoute, c)
	}
	e.Withdraw(1, p)
	converge(t, e)
	if r, ok := e.BestRoute(2, p); ok {
		t.Fatalf("withdrawn: AS2 still reads %+v", *r)
	}
	announce(plain)
	if got := read("withdrawn→A", 1, topo.Path{1}); got != a2 {
		t.Fatalf("withdrawn→A: got %p, want the Route read before the withdrawal %p", got, a2)
	}
	if !reflect.DeepEqual(*a, held) {
		t.Fatalf("A's Route, held throughout, now reads %+v, was %+v", *a, held)
	}
}
