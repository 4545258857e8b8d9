//go:build !simclockdebug

package simclock

import (
	"math/bits"
	"testing"
	"time"
)

// TestSteadyStateSchedulesWithoutAllocating pins the point of storing events
// by value: once the heap's backing array has grown to the queue's size,
// scheduling and running an event allocates nothing, in either form. (Not
// under simclockdebug: its owner check reads the goroutine id off a stack
// dump, which allocates.)
func TestSteadyStateSchedulesWithoutAllocating(t *testing.T) {
	s := New()
	call, plain := func(uint64) {}, func() {}
	for i := 0; i < 1000; i++ {
		s.AfterCall(time.Duration(i)*time.Hour, call, uint64(i))
	}
	s.AfterCall(0, call, 0) // the slot the loop below reuses
	s.Step()
	if n := testing.AllocsPerRun(1000, func() {
		s.AfterCall(time.Millisecond, call, 7)
		s.Step()
	}); n != 0 {
		t.Errorf("AfterCall+Step on a warmed heap: %v allocs/event, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		s.After(time.Millisecond, plain)
		s.Step()
	}); n != 0 {
		t.Errorf("After+Step on a warmed heap: %v allocs/event, want 0", n)
	}
}

// TestBucketCapacityFlat pins the memory a long run holds in the queue.
// Buckets keep their backing arrays, so what bounds them is the shape of
// the queue, not the number of events run: no bucket holds more than twice
// the queue's length, and no bucket above the top bit of the latest time
// pending (now + 30 s) holds anything. The engine mix runs for 48 virtual
// hours at repair's queue length, about nine million events, and both
// hold at hour 24 and at hour 48. Between the two the total grows by one
// bucket, b[48], which opens when the clock crosses 2^47 ns (39.1 h) — one
// per doubling of virtual time, 64 at most — and by the odd slot of a low
// bucket whose events first fall within a few µs of each other. (Not
// under simclockdebug: its owner check makes nine million events take
// minutes.)
func TestBucketCapacityFlat(t *testing.T) {
	const queueLen = 356
	s := New()
	newEngineMix(s, queueLen)
	for _, h := range []time.Duration{24, 48} {
		s.RunUntil(h * time.Hour)
		top := bits.Len64(uint64(s.Now() + 30*time.Second))
		total := 0
		for k := range s.b {
			c := cap(s.b[k])
			total += c
			if c > 2*queueLen || k > top && c > 0 {
				t.Errorf("hour %d: bucket %d holds capacity %d (top bit %d, queue %d)", h, k, c, top, queueLen)
			}
		}
		t.Logf("hour %d: %d slots in buckets up to %d", h, total, top)
	}
}
