package dataplane

import (
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"lifeguard/internal/bgp"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// cloneResult returns r with hops of its own.
func cloneResult(r Result) Result {
	r.Hops = slices.Clone(r.Hops)
	return r
}

// TestRewalkKeepsEarlierResult holds the aliasing contract's promise that
// hops never change under a caller. Results handed out before their header
// is re-walked onto another path — the full walk, one cut by TTL, one cut by
// a lossy draw — keep their hops through the re-walk and through walks of
// other headers, and so does the Result of a header the cache does not key,
// whose hops are its own. An append through a Result leaves the hops carved
// after it alone.
func TestRewalkKeepsEarlierResult(t *testing.T) {
	w := newWalkWorld(t, topogen.Config{Seed: 7, NumTransit: 12, NumStub: 48})
	pl, top := w.cached, w.gen.Top
	from := hub(top, w.gen.Stubs[0])
	o := w.gen.Stubs[9]
	src, dst := top.Router(from).Addr, topo.ProductionAddr(o)
	f := pl.Flow(from, src, dst)
	full := f.Forward(0)
	if !full.Delivered() || len(full.Hops) < 4 {
		t.Fatalf("want a multi-hop delivered walk, got %v", &full)
	}
	short := f.Forward(2)
	lossy := pl.AddFailure(Rule{AtRouter: full.Hops[len(full.Hops)/2].Router, HasRouter: true, DropProb: 0.5, ProbSeed: 5})
	var drawn Result
	for range 64 {
		if drawn = f.Forward(0); drawn.Reason == Blackhole {
			break
		}
	}
	if drawn.Reason != Blackhole {
		t.Fatal("64 packets through a rule dropping half of them all passed")
	}
	pl.RemoveFailure(lossy)
	bypass := pl.Forward(from, Packet{Src: netip.MustParseAddr("2001:db8::1"), Dst: dst})
	if len(bypass.Hops) < 4 {
		t.Fatalf("want a multi-hop walk for the unkeyed header, got %v", &bypass)
	}
	held := []Result{full, short, drawn, bypass}
	want := make([]Result, len(held))
	for i, r := range held {
		want[i] = cloneResult(r)
	}

	// Poison the ASes of the path one at a time until the header's walk
	// moves, then walk every round header: any storage two walks share is
	// written over.
	moved := false
	for _, a := range full.ASPath()[1 : len(full.ASPath())-1] {
		w.eng.Announce(o, topo.Block(o), bgp.OriginConfig{Pattern: topo.Path{o, a, o}})
		w.eng.Converge(500_000_000)
		if r := f.Forward(0); !slices.Equal(r.Hops, full.Hops) {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("no poison on the path moved the walk")
	}
	for _, p := range w.round {
		pl.Forward(p.from, p.pkt)
	}
	for i, name := range []string{"full walk", "TTL-cut walk", "lossy-drawn walk", "unkeyed walk"} {
		if !reflect.DeepEqual(held[i], want[i]) {
			t.Errorf("%s changed under its holder:\nnow %+v\nwas %+v", name, held[i], want[i])
		}
	}

	// On a fresh plane two walks are carved side by side.
	fresh := New(top, w.eng)
	first := fresh.Forward(from, Packet{Src: src, Dst: dst})
	cut := fresh.Forward(from, Packet{Src: src, Dst: dst, TTL: 2})
	next := fresh.Forward(hub(top, w.gen.Stubs[1]), Packet{Src: src, Dst: dst})
	nextWant := cloneResult(next)
	for _, r := range []Result{first, cut} {
		_ = append(r.Hops, Hop{Router: 1 << 30})
	}
	if !reflect.DeepEqual(next, nextWant) {
		t.Fatalf("an append through an earlier Result wrote over the next walk's hops:\nnow %+v\nwas %+v", next, nextWant)
	}
}

// hotRIB is an engine under which every stored walk toward hot is stale
// whenever it is asked for, and every other stored walk stands.
type hotRIB struct {
	*bgp.Engine
	hot netip.Addr
	v   uint64
}

func (r *hotRIB) RIBVersion() uint64    { r.v++; return r.v }
func (r *hotRIB) FwdVersion(int) uint64 { return r.v }
func (r *hotRIB) DstVersion(a netip.Addr) uint64 {
	if a == r.hot {
		return r.v
	}
	return 0
}

// TestSlabRetention holds slabHops' retention arithmetic: a chunk lives
// while a walk carved from it does, so the slab keeps at most one chunk per
// live entry, and no more. One header is re-walked at every ask; before each
// chunk's worth of its re-walks another header is walked once and then
// stands, pinning the chunk it went into. Then the re-walks run on alone for
// four times as many chunks. The live entries' hops lie in at most one
// chunk each; the live heap grows by less than twice that many chunks and
// their slots, where keeping every chunk would grow it by five times as many.
// Last, a cap clear lets go of the chunk being filled.
func TestSlabRetention(t *testing.T) {
	w := newWalkWorld(t, topogen.Config{Seed: 7, NumTransit: 12, NumStub: 48})
	top := w.gen.Top
	hot := topo.ProductionAddr(w.gen.Stubs[9])
	pl := New(top, &hotRIB{Engine: w.eng, hot: hot})
	from := hub(top, w.gen.Stubs[0])
	hotFlow := pl.Flow(from, top.Router(from).Addr, hot)
	res := hotFlow.Forward(0)
	perChunk := slabHops / len(res.Hops)
	other := topo.ProductionAddr(w.gen.Stubs[10])

	// chunks records the address of every chunk the slab starts, as an
	// integer, which keeps nothing alive; starts counts them.
	base := func(h []Hop) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(h))) }
	chunks := map[uintptr]bool{base(pl.slab): true}
	starts, last := 1, base(pl.slab)
	note := func() {
		if b := base(pl.slab); b != last {
			chunks[b], starts, last = true, starts+1, b
		}
	}
	rewalk := func(n int) {
		for range n {
			hotFlow.Forward(0)
			note()
		}
	}
	const pinned = 32
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range uint32(pinned) {
		pl.Forward(from, Packet{Src: addr4(250<<24 | i), Dst: other})
		note()
		rewalk(perChunk)
	}
	rewalk(4 * pinned * perChunk)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if n := len(pl.walks); n != pinned+1 {
		t.Fatalf("%d entries, want %d", n, pinned+1)
	}

	// The chunks the live entries' hops lie in: one each at most, and
	// never outside the slab.
	chunk := slabHops * unsafe.Sizeof(Hop{})
	held := map[uintptr]bool{}
	for _, e := range pl.walks {
		p, in := base(e.full.Hops), false
		for b := range chunks {
			if b <= p && p < b+chunk {
				held[b], in = true, true
			}
		}
		if !in {
			t.Fatalf("a live entry's hops at %#x lie in none of the slab's chunks", p)
		}
	}
	if starts < 4*pinned || len(held) > pinned+1 {
		t.Fatalf("the slab started %d chunks and %d live entries hold %d of them, want at least %d started and at most %d held",
			starts, pinned+1, len(held), 4*pinned, pinned+1)
	}
	const slot = 1 << 10 // an entry, its stamps and its share of the map, generously
	grown := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	t.Logf("%d chunks of %d walks of %d hops, %d held; live heap grew by %d B", starts, perChunk, len(res.Hops), len(held), grown)
	if limit := 2 * (pinned + 1) * (int64(chunk) + slot); grown > limit {
		t.Errorf("live heap grew by %d B over %d live entries, more than %d B (twice one %d B chunk and a slot each)",
			grown, pinned+1, limit, chunk)
	}

	for i := 0; len(pl.walks) < walkCacheCap; i++ {
		pl.walks[walkKey{from: topo.RouterID(1<<30 + i)}] = new(walkEntry)
	}
	newcomer := pl.Forward(from, Packet{Src: addr4(251 << 24), Dst: other})
	if &pl.slab[0] != &newcomer.Hops[0] {
		t.Fatal("the first walk after a cap clear went into the chunk the dropped entries filled")
	}
}
