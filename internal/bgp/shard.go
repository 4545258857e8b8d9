package bgp

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"lifeguard/internal/runner"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// Sharded event loop. The classic engine schedules every protocol event on
// the simclock heap, which serializes the whole Internet through one queue.
// Since that queue stores events by value (closure-free deliveries and
// timers, see Engine.deliver) the classic loop is the faster and smaller of
// the two on one worker at 200, 2k and 10k ASes (DESIGN.md §6), so all the
// sharded engine can buy is the second core: it keeps protocol events in a
// typed heap of its own, pumps them in *barrier windows*, and runs each
// window's speakers concurrently:
//
//   - One simclock event (the pump) is armed at the typed heap's earliest
//     time, so the engine still interleaves correctly — and deterministically
//     — with everything else on the scheduler (monitors, probes, chaos
//     timelines).
//   - A window spans [t0, t0+W) where W = (1-PropJitter)·PropDelay − 1µs
//     (negative PropJitter counts as 0, as in jitterFor), clamped down so
//     it never crosses the next external simclock event.
//     Every cross-speaker message emitted at time t inside the window is
//     delivered at t + jitter·PropDelay + extra ≥ t0 + (1-PropJitter)·
//     PropDelay > t0 + W (extra delays are non-negative — SetLinkExtraDelay
//     panics otherwise — and the FIFO bump only pushes later). So no event
//     processed in this window can create work for another speaker *inside*
//     the window: speakers are causally independent within a window and may
//     run on separate workers. emit enforces this with a panic, making the
//     safety argument a checked invariant rather than a comment.
//   - Same-speaker events (MRAI/phase timers, dampening reuse checks) may
//     land inside the window; they go to the speaker's private local heap
//     and are processed in (time, global-before-local, sequence) order.
//   - Determinism: events are popped from the global heap in (time, seq)
//     order; the active-speaker list, each speaker's event sequence, its rng
//     stream (per-speaker, seeded from Seed and ASN), and the merge order of
//     emitted events and buffered BestChange notifications are all
//     independent of worker count. Sharded runs are byte-identical for every
//     ShardWorkers ≥ 1. (They differ from classic runs, which draw all
//     jitter from one engine-global stream.)
//
// Decision batching rides on the same structure: deliveries inside a window
// only fold into the adj-RIB-in and mark the prefix dirty; the decision
// process runs once per dirty prefix — in sorted prefix order — before any
// timer fires (a flush must export settled routes) and at window end.

// evKind discriminates typed engine events.
type evKind uint8

const (
	evDeliver evKind = iota // a BGP update arriving at sp from `from`
	evTimer                 // sp's phase/MRAI timer for neighbor index nbr
	evReuse                 // dampening reuse check at sp for (from, prefix)
)

// engEvent is one typed protocol event.
type engEvent struct {
	at  time.Duration
	seq uint64 // tie-break; global or per-speaker-local counter
	// local marks events emitted by their owner inside the current window;
	// at equal times the already-scheduled (global) event runs first,
	// matching the classic loop's FIFO heap.
	local   bool
	counted bool // contributes to Engine.pendingEvents (reuse checks do not)
	kind    evKind
	sp      topo.ASN // owner: the speaker that will process the event
	from    topo.ASN // evDeliver: sender; evReuse: dampened neighbor
	nbr     int32    // evTimer: neighbor index
	u       update   // evDeliver: payload; evReuse: u.id identifies the pair
}

func evLess(a, b *engEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.local != b.local {
		return !a.local
	}
	return a.seq < b.seq
}

// localHeap is a plain binary min-heap of engEvents, used both for the
// engine's global typed heap and each speaker's in-window local queue.
type localHeap struct {
	ev []engEvent
}

func (h *localHeap) len() int { return len(h.ev) }

func (h *localHeap) push(e engEvent) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(&h.ev[i], &h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *localHeap) pop() engEvent {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = engEvent{} // release payload references
	h.ev = h.ev[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && evLess(&h.ev[l], &h.ev[small]) {
			small = l
		}
		if r < n && evLess(&h.ev[r], &h.ev[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.ev[i], h.ev[small] = h.ev[small], h.ev[i]
		i = small
	}
	return top
}

// shardState is the engine's sharded-mode machinery.
type shardState struct {
	workers int
	window  time.Duration
	heap    localHeap
	seq     uint64
	// The pump is the single simclock event representing the typed heap;
	// when armed it sits exactly at the heap's earliest time.
	pumpArmed bool
	pumpAt    time.Duration
	pumpID    simclock.EventID
	active    []*Speaker // scratch: the current barrier's speakers, pop order
}

// initShard validates the timing model leaves a usable barrier window and
// equips every speaker with its own rng stream and stats buffer.
func (e *Engine) initShard() {
	// Negative jitter means "none" (jitterFor): the earliest delivery is
	// then PropDelay itself, never later.
	j := max(e.cfg.PropJitter, 0)
	w := time.Duration((1 - j) * float64(e.cfg.PropDelay))
	w -= time.Microsecond // FIFO bumps advance deliveries by 1µs
	if w <= 0 {
		panic(fmt.Sprintf("bgp: ShardWorkers requires (1-PropJitter)*PropDelay > 1µs; PropDelay %v with PropJitter %v leaves no safe barrier window",
			e.cfg.PropDelay, e.cfg.PropJitter))
	}
	e.shard = &shardState{workers: e.cfg.ShardWorkers, window: w}
	for _, asn := range e.asns {
		s := e.speakers[asn]
		// Distinct, reproducible stream per speaker: the golden-ratio
		// multiplier spreads consecutive ASNs across seed space.
		s.rng = rand.New(&splitmix{state: uint64(e.cfg.Seed + int64(asn)*0x9E3779B9)})
		s.stats = &speakerStats{}
	}
}

// splitmix is SplitMix64 as a rand.Source64: 8 bytes of state where the
// stdlib's default source carries ~5KB — at one stream per speaker, the
// difference is tens of megabytes on a 10k-AS topology.
type splitmix struct{ state uint64 }

func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmix) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

// emit routes a typed event: to the emitting speaker's local queue when it
// targets itself inside the current window, to its deferred-emit buffer when
// it lands at or past the window end, and straight onto the global heap when
// no window is active (API calls, chaos callbacks between barriers).
func (e *Engine) emit(s *Speaker, ev engEvent, counted bool) {
	ev.counted = counted
	if s.inWindow {
		if ev.at < s.winEnd {
			if ev.sp != s.asn {
				panic(fmt.Sprintf("bgp: shard window-safety violation: AS %d emitted an event for AS %d at %v inside window ending %v",
					s.asn, ev.sp, ev.at, s.winEnd))
			}
			ev.local = true
			ev.seq = s.localSeq
			s.localSeq++
			if counted {
				s.pendDiff++
			}
			s.localQ.push(ev)
			return
		}
		if counted {
			s.pendDiff++
		}
		s.emits = append(s.emits, ev)
		return
	}
	if counted {
		e.pendingEvents++
	}
	sh := e.shard
	ev.seq = sh.seq
	sh.seq++
	sh.heap.push(ev)
	e.rearmPump()
}

// rearmPump keeps the invariant "pump armed ⇔ typed heap non-empty, at its
// top's time". It is cheap when the invariant already holds.
func (e *Engine) rearmPump() {
	sh := e.shard
	if sh.heap.len() == 0 {
		if sh.pumpArmed {
			e.clk.Cancel(sh.pumpID)
			sh.pumpArmed = false
		}
		return
	}
	top := sh.heap.ev[0].at
	if sh.pumpArmed {
		if sh.pumpAt <= top {
			return
		}
		e.clk.Cancel(sh.pumpID)
	}
	sh.pumpArmed = true
	sh.pumpAt = top
	sh.pumpID = e.clk.At(top, e.pumpFire)
}

// pumpFire runs one barrier window and re-arms for the next.
func (e *Engine) pumpFire() {
	e.shard.pumpArmed = false
	e.runBarrier()
	e.rearmPump()
}

// runBarrier pops one window's worth of events, fans the active speakers out
// across workers, and merges their effects back in deterministic order.
func (e *Engine) runBarrier() {
	sh := e.shard
	if sh.heap.len() == 0 {
		return
	}
	t0 := sh.heap.ev[0].at
	tEnd := t0 + sh.window
	// Never run past the next external simclock event: a monitor or chaos
	// callback at t must observe engine state as of t, not t+window. An
	// external event at exactly t0 shrinks the window to the single instant.
	if next, ok := e.clk.NextAt(); ok && next < tEnd {
		if next <= t0 {
			tEnd = t0 + time.Nanosecond
		} else {
			tEnd = next
		}
	}
	active := sh.active[:0]
	for sh.heap.len() > 0 && sh.heap.ev[0].at < tEnd {
		ev := sh.heap.pop()
		if ev.counted {
			e.pendingEvents--
			ev.counted = false // the local pop must not decrement again
		}
		s := e.speakers[ev.sp]
		if !s.active {
			s.active = true
			s.inWindow = true
			s.winEnd = tEnd
			active = append(active, s)
		}
		s.localQ.push(ev) // keeps its global seq; local=false orders it first
	}
	sh.active = active
	if sh.workers > 1 && len(active) > 1 {
		_, err := runner.Map(context.Background(), len(active),
			runner.Config{Parallelism: sh.workers},
			func(_ context.Context, i int) (struct{}, error) {
				active[i].runWindow()
				return struct{}{}, nil
			})
		if err != nil {
			panic(fmt.Sprintf("bgp: barrier worker failed: %v", err))
		}
	} else {
		for _, s := range active {
			s.runWindow()
		}
	}
	// Merge, in the deterministic active order: pending-event deltas,
	// deferred emits (fresh global sequence numbers), buffered stats, and
	// loc-RIB change notifications (re-sorted into one global timeline).
	var notifs []BestChange
	for _, s := range active {
		e.pendingEvents += s.pendDiff
		s.pendDiff = 0
		for _, ev := range s.emits {
			ev.local = false
			ev.seq = sh.seq
			sh.seq++
			sh.heap.push(ev)
		}
		s.emits = s.emits[:0]
		if len(s.notifs) > 0 {
			notifs = append(notifs, s.notifs...)
			s.notifs = s.notifs[:0]
		}
		e.flushStats(s.stats)
		s.active = false
		s.inWindow = false
	}
	if len(notifs) > 0 {
		sort.SliceStable(notifs, func(i, j int) bool { return notifs[i].At < notifs[j].At })
		for _, bc := range notifs {
			e.OnBestChange(bc)
		}
	}
}

// runWindow drains the speaker's local queue — the barrier's events for this
// speaker plus whatever same-speaker events they spawn inside the window —
// then settles any deferred decisions. Runs on a worker goroutine; it may
// touch only this speaker's state, the engine's immutable config/topology,
// the lock-protected arena, and the speaker's own dense slots.
func (s *Speaker) runWindow() {
	for {
		for s.localQ.len() > 0 {
			ev := s.localQ.pop()
			s.now = ev.at
			if ev.counted {
				s.pendDiff--
			}
			switch ev.kind {
			case evDeliver:
				if s.neighborDown(ev.from) {
					break // the session died while the message was in flight
				}
				if id, changed := s.applyUpdate(ev.from, ev.u); changed {
					s.dirty.add(id, s.e.prefixes.size())
				}
			case evTimer:
				// A flush exports loc-RIB routes: settle deferred
				// decisions first so it never advertises a stale winner.
				s.settleDirty()
				s.timerFired(int(ev.nbr))
			case evReuse:
				s.settleDirty()
				s.reuseCheck(dampKey{from: ev.from, id: ev.u.id})
			}
		}
		// Settling can kick sessions whose phase timer lands back inside
		// this window; loop until the queue stays empty, or those events
		// would go stale and replay with past timestamps in a later
		// barrier.
		s.settleDirty()
		if s.localQ.len() == 0 {
			return
		}
	}
}

// settleDirty runs the decision process for every prefix touched since the
// last settle, in sorted prefix order so neither arrival order nor prefix
// ids leak into the update schedule.
func (s *Speaker) settleDirty() {
	if len(s.dirty.ids) == 0 {
		return
	}
	s.e.prefixes.sortByRank(s.dirty.ids)
	for _, id := range s.dirty.ids {
		if s.decide(id) {
			s.markAllPending(id)
		}
	}
	s.dirty.reset()
}
