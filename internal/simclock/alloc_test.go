//go:build !simclockdebug

package simclock

import (
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
