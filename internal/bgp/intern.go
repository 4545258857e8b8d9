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
// Handles are used strictly for equality ("is this the same path I already
// advertised / already store?"), never for ordering or output, so the
// numeric handle values — which depend on interning order — can never leak
// into a run's results. Like the rest of the engine, the arena belongs to
// the goroutine that runs the event loop, and has no lock.

// pathID is a handle into the engine arena's path table. 0 means "no path"
// (a withdrawal); the empty path (an originated route) interns like any
// other and gets a nonzero id.
type pathID uint32

// arena is the engine-global intern table for AS paths.
type arena struct {
	paths   []topo.Path // paths[id-1] is the canonical slice for id
	pathIdx map[string]pathID
}

func newArena() *arena {
	return &arena{pathIdx: make(map[string]pathID)}
}

// pathKey appends p to buf at 4 bytes per hop; topo.ASN is 32-bit, so the key
// must carry the full width or distinct paths above 65535 would alias.
func pathKey(buf []byte, p topo.Path) []byte {
	for _, a := range p {
		buf = asnKey(buf, a)
	}
	return buf
}

func asnKey(buf []byte, a topo.ASN) []byte {
	return append(buf, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// internPath returns the canonical id for p, interning it on first sight.
// p must be immutable from the caller's side (the arena aliases it); every
// interned path in this engine is either a sanitized origin pattern or a
// freshly-built export path, both of which never mutate.
func (a *arena) internPath(p topo.Path) pathID {
	if p == nil {
		return 0
	}
	var scratch [64]byte
	key := pathKey(scratch[:0], p)
	if id, ok := a.pathIdx[string(key)]; ok {
		return id
	}
	return a.addPath(key, p)
}

// internPrepended returns the canonical id for path(tail) prepended with
// self — the path a speaker exports a learned route with. The key is built
// from the two parts; the path itself only if the arena has never seen it.
// Most exports are of a path seen before (every unpoison, every step back
// of a path exploration), and those allocate nothing.
func (a *arena) internPrepended(self topo.ASN, tail pathID) pathID {
	t := a.path(tail)
	var scratch [64]byte
	key := pathKey(asnKey(scratch[:0], self), t)
	if id, ok := a.pathIdx[string(key)]; ok {
		return id
	}
	return a.addPath(key, t.Prepend(self))
}

// addPath interns p under key, which the arena does not hold yet.
func (a *arena) addPath(key []byte, p topo.Path) pathID {
	a.paths = append(a.paths, p)
	id := pathID(len(a.paths))
	a.pathIdx[string(key)] = id
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
