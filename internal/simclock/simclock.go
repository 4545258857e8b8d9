// Package simclock provides a deterministic discrete-event scheduler with a
// virtual clock. Every time-dependent component of the simulator (BGP MRAI
// timers, probe round trips, monitoring rounds) schedules callbacks here, so
// an entire experiment is a single-threaded, reproducible event replay.
package simclock

import (
	"fmt"
	"math"
	"math/bits"
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

func (ev *event) fire() {
	if ev.plain != nil {
		ev.plain()
		return
	}
	ev.fn(ev.arg)
}

// Scheduler is a discrete-event scheduler. The zero value is ready to use.
// It is not safe for concurrent use; simulations are single-threaded by
// design so that runs are reproducible, and no code that runs one starts a
// goroutine (the root TestNoWallClock scan enforces that).
type Scheduler struct {
	now time.Duration
	// The queue is a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, 1990),
	// valid because no event is ever scheduled before now. An event at t
	// lives in b[bits.Len64(t^base)], so every event of b[j] sorts before
	// every event of b[k] for j < k. b[0] holds the events at exactly base
	// and is read FIFO from head0. Bit k of mask is set iff b[k] is
	// non-empty, and n counts the events. Only a pop moves base, to the
	// instant it is about to run, so base ≤ now always holds.
	base  time.Duration
	b     [64][]event
	head0 int
	mask  uint64
	n     int

	nextSeq uint64
}

// New returns a scheduler whose clock starts at zero virtual time.
func New() *Scheduler { return &Scheduler{} }

// Now reports the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return s.n }

// NextAt reports the virtual time of the earliest pending event without
// running it; ok is false when nothing is scheduled. A driver that steps the
// clock itself (the benchmark's traced runs) uses it to stop at a virtual
// deadline without running the event past it. It moves nothing: a base
// moved past now would put a later At(now) below it.
func (s *Scheduler) NextAt() (time.Duration, bool) {
	switch {
	case s.mask == 0:
		return 0, false
	case s.mask&1 != 0:
		return s.base, true
	}
	return earliest(s.b[bits.TrailingZeros64(s.mask)]), true
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a simulation bug, silently reordering events
// would destroy reproducibility, and the queue relies on it (an event below
// base would be filed in the wrong bucket).
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

// schedule stamps ev with the next sequence number and appends it to its
// bucket. The stamp is the largest issued so far, so every bucket stays in
// seq order.
func (s *Scheduler) schedule(ev event) EventID {
	if ev.fn == nil && ev.plain == nil {
		panic("simclock: nil event callback")
	}
	if ev.at < s.now {
		panic(fmt.Sprintf("simclock: scheduling at %v before now %v", ev.at, s.now))
	}
	s.nextSeq++
	ev.seq = s.nextSeq
	s.put(ev)
	s.n++
	return EventID(ev.seq)
}

// put files ev in the bucket its time names relative to base.
func (s *Scheduler) put(ev event) {
	k := bits.Len64(uint64(ev.at ^ s.base))
	s.b[k] = append(s.b[k], ev)
	s.mask |= 1 << k
}

// earliest is the least at in a non-empty bucket.
func earliest(evs []event) time.Duration {
	m := evs[0].at
	for i := 1; i < len(evs); i++ {
		m = min(m, evs[i].at)
	}
	return m
}

// settle reports whether the earliest pending events are due by limit and,
// if they are, makes b[0] hold them. When b[0] is empty it takes the lowest
// non-empty bucket, moves base to that bucket's earliest event and deals
// the bucket out, in order, into the buckets below it. Those are all empty
// (it was the lowest), so each receives a seq-ordered run: b[0] then pops
// in (at, seq) order.
func (s *Scheduler) settle(limit time.Duration) bool {
	if s.mask&1 != 0 {
		return s.base <= limit
	}
	if s.mask == 0 {
		return false
	}
	k := bits.TrailingZeros64(s.mask)
	evs := s.b[k]
	m := earliest(evs)
	if m > limit {
		return false
	}
	s.base = m
	for i := range evs {
		s.put(evs[i])
	}
	// Zero the dealt-out slots: the backing array outlives the events, and
	// a fired callback (and whatever it captured) must stay collectable.
	clear(evs)
	s.emptied(k)
	return true
}

// pop runs the head of b[0], which settle has just reported due.
func (s *Scheduler) pop() {
	ev := s.b[0][s.head0]
	s.b[0][s.head0] = event{}
	s.head0++
	s.n--
	if s.head0 == len(s.b[0]) {
		s.emptied(0)
	}
	s.now = ev.at
	ev.fire()
}

// emptied records that bucket k has no live event left.
func (s *Scheduler) emptied(k int) {
	s.b[k] = s.b[k][:0]
	s.mask &^= 1 << k
	if k == 0 {
		s.head0 = 0
	}
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if already fired or previously cancelled). Cancel searches
// the buckets and closes the hole by shifting the later events left, which
// keeps the bucket in seq order, so it costs O(pending events): the callers
// are ticker stops and watchdog re-arms, a few per simulated minute, and in
// exchange no event pays for an id index it will almost never need.
func (s *Scheduler) Cancel(id EventID) bool {
	for m := s.mask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		lo, evs := 0, s.b[k]
		if k == 0 {
			lo = s.head0
		}
		for i := lo; i < len(evs); i++ {
			if evs[i].seq != uint64(id) {
				continue
			}
			copy(evs[i:], evs[i+1:])
			evs[len(evs)-1] = event{}
			s.b[k] = evs[:len(evs)-1]
			s.n--
			if len(s.b[k]) == lo {
				s.emptied(k)
			}
			return true
		}
	}
	return false
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event was run.
func (s *Scheduler) Step() bool {
	if !s.settle(math.MaxInt64) {
		return false
	}
	s.pop()
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
	for s.settle(t) {
		s.pop()
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor executes events for the next d of virtual time.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now + d) }
