// Package simclock provides a deterministic discrete-event scheduler with a
// virtual clock. Every time-dependent component of the simulator (BGP MRAI
// timers, probe round trips, monitoring rounds) schedules callbacks here, so
// an entire experiment is a single-threaded, reproducible event replay.
package simclock

import (
	"container/heap"
	"fmt"
	"time"
)

// EventID identifies a scheduled event so it can be cancelled.
type EventID uint64

// event is a single scheduled callback.
type event struct {
	at    time.Duration // virtual time
	seq   uint64        // tie-break: FIFO among events at the same instant
	id    EventID
	fn    func()
	index int // heap index, -1 once popped or cancelled
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Scheduler is a discrete-event scheduler. The zero value is ready to use.
// It is not safe for concurrent use; simulations are single-threaded by
// design so that runs are reproducible. Builds tagged simclockdebug
// additionally pin each scheduler to the first goroutine that uses it and
// panic on cross-goroutine use (see owner_debug.go) — accidental scheduler
// sharing between parallel trial workers fails immediately instead of
// corrupting results silently.
type Scheduler struct {
	now     time.Duration
	heap    eventHeap
	nextSeq uint64
	nextID  EventID
	live    map[EventID]*event
	owner   ownerGuard
}

// New returns a scheduler whose clock starts at zero virtual time.
func New() *Scheduler {
	return &Scheduler{live: make(map[EventID]*event)}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return len(s.heap) }

// NextAt reports the virtual time of the earliest pending event without
// running it; ok is false when nothing is scheduled. Components that batch
// work between scheduler events (the sharded BGP engine's barrier windows)
// use it to avoid running past the next externally-visible instant.
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
	s.owner.check()
	if fn == nil {
		panic("simclock: nil event callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("simclock: scheduling at %v before now %v", t, s.now))
	}
	if s.live == nil {
		s.live = make(map[EventID]*event)
	}
	s.nextID++
	s.nextSeq++
	ev := &event{at: t, seq: s.nextSeq, id: s.nextID, fn: fn}
	heap.Push(&s.heap, ev)
	s.live[ev.id] = ev
	return ev.id
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if already fired or previously cancelled).
func (s *Scheduler) Cancel(id EventID) bool {
	s.owner.check()
	ev, ok := s.live[id]
	if !ok {
		return false
	}
	delete(s.live, id)
	heap.Remove(&s.heap, ev.index)
	return true
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event was run.
func (s *Scheduler) Step() bool {
	s.owner.check()
	if len(s.heap) == 0 {
		return false
	}
	ev := heap.Pop(&s.heap).(*event)
	delete(s.live, ev.id)
	s.now = ev.at
	ev.fn()
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
