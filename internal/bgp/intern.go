package bgp

import "lifeguard/internal/topo"

// AS-path interning. At Internet scale the same AS path is offered to a
// speaker by many neighbors and stored by thousands of speakers;
// materializing a []ASN per adj-RIB-in entry multiplies the dominant memory
// term by the mean path length. The engine instead keeps
// one global arena of canonical paths and hands out 32-bit handles: RIB
// entries store handles, and topo.Path values are materialized only at API
// boundaries (Best/AdjIn/BestChange) or when a message needs the slice for
// import policy.
//
// The arena is a table of cons cells: a non-empty path is keyed by its first
// hop and the handle of the rest, one uint64, and the empty path is interned
// when the arena is made. A speaker exporting a learned route prepends itself
// to a path it already holds by handle, so finding that export is one integer
// lookup, and a path that enters whole (an origin pattern) is folded in from
// its end, one suffix at a time. Equal contents get equal handles whichever
// way they enter: by induction on length, the rests are equal handles, so the
// keys are equal. A new export path is carved from the arena's slab chunk
// rather than allocated on its own (see internPrepended).
//
// Handles are used strictly for equality ("is this the same path I already
// advertised / already store?"), never for ordering or output, so the
// numeric handle values — which depend on interning order — can never leak
// into a run's results. Like the rest of the engine, the arena belongs to
// the goroutine that runs the event loop, and has no lock.

// pathID is a handle into the engine arena's path table. 0 means "no path"
// (a withdrawal); the empty path (an originated route) is emptyPath.
type pathID uint32

// emptyPath is the handle of the empty path, the innermost rest of every
// path; newArena interns it first.
const emptyPath pathID = 1

// slabHops is the size of a slab chunk, in hops (8 KB). The arena never
// forgets a path, so a chunk is never freed or written twice.
const slabHops = 2048

// arena is the engine-global intern table for AS paths.
type arena struct {
	paths []topo.Path // paths[id-1] is the canonical slice for id
	// cons maps consKey(first hop, handle of the rest) to the path's handle.
	cons map[uint64]pathID
	slab []topo.ASN // the chunk new export paths are carved from
}

func newArena() *arena {
	return &arena{paths: []topo.Path{{}}, cons: make(map[uint64]pathID)}
}

// consKey is the key of the path whose first hop is head and whose rest has
// handle tail. Both halves are 32 bits wide, so no two paths share a key.
func consKey(head topo.ASN, tail pathID) uint64 {
	return uint64(head)<<32 | uint64(tail)
}

// internPath returns the canonical id for p, interning it and each of its
// suffixes on first sight. p must be immutable from the caller's side (the
// arena aliases its suffixes); every interned path in this engine is either
// a sanitized origin pattern or a freshly-built export path, both of which
// never mutate.
func (a *arena) internPath(p topo.Path) pathID {
	if p == nil {
		return 0
	}
	id := emptyPath
	for i := len(p) - 1; i >= 0; i-- {
		k := consKey(p[i], id)
		next, ok := a.cons[k]
		if !ok {
			next = a.add(k, p[i:])
		}
		id = next
	}
	return id
}

// internPrepended returns the canonical id for path(tail) prepended with
// self — the path a speaker exports a learned route with. The path itself
// is built only if the arena has never seen it. Most exports are of a path
// seen before (every unpoison, every step back of a path exploration), and
// those allocate nothing. A new one is carved from the slab with its
// capacity equal to its length: an append through a Route.Path or an
// update's path reallocates instead of writing over the next path.
func (a *arena) internPrepended(self topo.ASN, tail pathID) pathID {
	k := consKey(self, tail)
	if id, ok := a.cons[k]; ok {
		return id
	}
	t := a.path(tail)
	n := len(t) + 1
	if cap(a.slab)-len(a.slab) < n {
		a.slab = make([]topo.ASN, 0, max(slabHops, n))
	}
	l := len(a.slab)
	a.slab = append(append(a.slab, self), t...)
	return a.add(k, a.slab[l:l+n:l+n])
}

// add interns p under key k, which the arena does not hold yet.
func (a *arena) add(k uint64, p topo.Path) pathID {
	a.paths = append(a.paths, p)
	id := pathID(len(a.paths))
	a.cons[k] = id
	return id
}

// path materializes the canonical slice for id; callers must treat it as
// read-only. id 0 returns nil.
func (a *arena) path(id pathID) topo.Path {
	if id == 0 {
		return nil
	}
	return a.paths[id-1]
}

// PathArenaSize reports how many distinct AS paths the engine has interned —
// the denominator of the memory win the arena buys (total adj-RIB-in entries
// divided by this is the sharing factor).
func (e *Engine) PathArenaSize() int { return len(e.arena.paths) }
