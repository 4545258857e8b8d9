// Package simclock provides a deterministic discrete-event scheduler with a
// virtual clock. Every time-dependent component of the simulator (BGP MRAI
// timers, probe round trips, monitoring rounds) schedules callbacks here, so
// an entire experiment is a single-threaded, reproducible event replay.
package simclock

import (
	"fmt"
	"time"
)

// EventID identifies a scheduled event so it can be cancelled. It is the
// event's sequence number; the first event gets 1, so the zero EventID never
// names an event and Cancel(0) is always false.
type EventID uint64

// event is one scheduled callback. The queue stores events by value:
// scheduling allocates nothing and nothing else points at an event.
type event struct {
	at  time.Duration // virtual time
	seq uint64        // tie-break: FIFO among events at the same instant
	// Exactly one of fn and plain is set. AtCall's func(uint64) and At's
	// func() share the queue and the order; fire is the only place that
	// tells them apart. (Wrapping a func() as a func(uint64) would cost a
	// closure per event.)
	fn    func(uint64)
	arg   uint64
	plain func()
}

func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

func (ev *event) fire() {
	if ev.plain != nil {
		ev.plain()
		return
	}
	ev.fn(ev.arg)
}

// arity is the heap's fan-out. Four children per node halve a binary heap's
// depth — and with it the moves a push or a pop makes — for the same number
// of comparisons per pop, and the four sit side by side in memory. (at, seq)
// is a total order, so the arity cannot change which event fires next.
const arity = 4

// Scheduler is a discrete-event scheduler. The zero value is ready to use.
// It is not safe for concurrent use; simulations are single-threaded by
// design so that runs are reproducible. Builds tagged simclockdebug
// additionally pin each scheduler to the first goroutine that uses it and
// panic on cross-goroutine use (see owner_debug.go) — accidental scheduler
// sharing between parallel trial workers fails immediately instead of
// corrupting results silently.
type Scheduler struct {
	now time.Duration
	// heap is an arity-ary min-heap on (at, seq): the children of heap[i]
	// are heap[arity*i+1 : arity*i+1+arity].
	heap    []event
	nextSeq uint64
	owner   ownerGuard
}

// New returns a scheduler whose clock starts at zero virtual time.
func New() *Scheduler { return &Scheduler{} }

// Now reports the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return len(s.heap) }

// NextAt reports the virtual time of the earliest pending event without
// running it; ok is false when nothing is scheduled. A driver that steps the
// clock itself (the benchmark's traced runs) uses it to stop at a virtual
// deadline without running the event past it.
func (s *Scheduler) NextAt() (time.Duration, bool) {
	s.owner.check()
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a simulation bug, and silently reordering
// events would destroy reproducibility.
func (s *Scheduler) At(t time.Duration, fn func()) EventID {
	return s.schedule(event{at: t, plain: fn})
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) EventID {
	return s.At(s.now+max(d, 0), fn)
}

// AtCall schedules fn(arg) at absolute virtual time t, under At's rules and
// in the same order. A caller that schedules many events binds fn once and
// lets arg say which one fired (an index into state it owns), so an event
// costs no closure; nothing is allocated per event.
func (s *Scheduler) AtCall(t time.Duration, fn func(uint64), arg uint64) EventID {
	return s.schedule(event{at: t, fn: fn, arg: arg})
}

// AfterCall schedules fn(arg) to run d after the current virtual time.
func (s *Scheduler) AfterCall(d time.Duration, fn func(uint64), arg uint64) EventID {
	return s.AtCall(s.now+max(d, 0), fn, arg)
}

// schedule stamps ev with the next sequence number and sifts it up from the
// end of the heap.
func (s *Scheduler) schedule(ev event) EventID {
	s.owner.check()
	if ev.fn == nil && ev.plain == nil {
		panic("simclock: nil event callback")
	}
	if ev.at < s.now {
		panic(fmt.Sprintf("simclock: scheduling at %v before now %v", ev.at, s.now))
	}
	s.nextSeq++
	ev.seq = s.nextSeq
	s.heap = append(s.heap, event{})
	s.up(len(s.heap)-1, ev)
	return EventID(ev.seq)
}

// up places ev at the hole i or above, moving larger ancestors down.
func (s *Scheduler) up(i int, ev event) {
	h := s.heap
	for i > 0 {
		p := (i - 1) / arity
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// down places ev at the hole i or below, moving smaller children up.
func (s *Scheduler) down(i int, ev event) {
	h := s.heap
	for {
		first := arity*i + 1
		if first >= len(h) {
			break
		}
		kids := h[first:min(first+arity, len(h))]
		least := 0
		for c := 1; c < len(kids); c++ {
			if kids[c].before(&kids[least]) {
				least = c
			}
		}
		least += first
		if !h[least].before(&ev) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = ev
}

// removeAt takes heap[i] out of the queue and returns it.
func (s *Scheduler) removeAt(i int) event {
	h := s.heap
	n := len(h) - 1
	ev, last := h[i], h[n]
	// Zero the vacated slot: the backing array outlives the event, and a
	// fired callback (and whatever it captured) must stay collectable.
	h[n] = event{}
	s.heap = h[:n]
	if i < n {
		// The last event fills the hole; it may belong on either side of it.
		if i > 0 && last.before(&h[(i-1)/arity]) {
			s.up(i, last)
		} else {
			s.down(i, last)
		}
	}
	return ev
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if already fired or previously cancelled). Cancel searches
// the queue, so it costs O(pending events): the callers are ticker stops
// and watchdog re-arms, a few per simulated minute, and in exchange no event
// pays for an id index it will almost never need.
func (s *Scheduler) Cancel(id EventID) bool {
	s.owner.check()
	for i := range s.heap {
		if s.heap[i].seq == uint64(id) {
			s.removeAt(i)
			return true
		}
	}
	return false
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event was run.
func (s *Scheduler) Step() bool {
	s.owner.check()
	if len(s.heap) == 0 {
		return false
	}
	ev := s.removeAt(0)
	s.now = ev.at
	ev.fire()
	return true
}

// Run executes events until none remain.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to exactly t (even if no event was pending at t).
func (s *Scheduler) RunUntil(t time.Duration) {
	s.owner.check()
	for len(s.heap) > 0 && s.heap[0].at <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor executes events for the next d of virtual time.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now + d) }
