//go:build simclockdebug

package simclock

import (
	"strings"
	"testing"
	"time"
)

func TestOwnerGuardSameGoroutineOK(t *testing.T) {
	s := New()
	s.After(time.Second, func() {})
	s.Run()
	if s.Now() != time.Second {
		t.Fatalf("now = %v", s.Now())
	}
}

// TestOwnerGuardCrossGoroutinePanics holds every entry point that reads or
// writes the queue to the owner check, both scheduling forms included.
func TestOwnerGuardCrossGoroutinePanics(t *testing.T) {
	entries := []struct {
		name string
		call func(*Scheduler)
	}{
		{"At", func(s *Scheduler) { s.At(time.Hour, func() {}) }},
		{"After", func(s *Scheduler) { s.After(time.Hour, func() {}) }},
		{"AtCall", func(s *Scheduler) { s.AtCall(time.Hour, func(uint64) {}, 0) }},
		{"AfterCall", func(s *Scheduler) { s.AfterCall(time.Hour, func(uint64) {}, 0) }},
		{"Cancel", func(s *Scheduler) { s.Cancel(1) }},
		{"Step", func(s *Scheduler) { s.Step() }},
		{"Run", func(s *Scheduler) { s.Run() }},
		{"RunUntil", func(s *Scheduler) { s.RunUntil(time.Minute) }},
		{"RunFor", func(s *Scheduler) { s.RunFor(time.Minute) }},
		{"NextAt", func(s *Scheduler) { s.NextAt() }},
	}
	for _, e := range entries {
		s := New()
		s.After(time.Second, func() {}) // claims ownership on this goroutine

		got := make(chan any, 1)
		go func() {
			defer func() { got <- recover() }()
			e.call(s)
		}()
		r := <-got
		if r == nil {
			t.Errorf("cross-goroutine %s did not panic under simclockdebug", e.name)
			continue
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "goroutine") {
			t.Errorf("%s: unexpected panic payload: %v", e.name, r)
		}
	}
}

func TestOwnerGuardClaimedByFirstUser(t *testing.T) {
	// A scheduler built on one goroutine but used only on another is
	// fine: ownership belongs to the first *user*, matching the runner
	// pattern where a trial closure builds its net inside a worker.
	s := New()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		s.After(time.Minute, func() {})
		s.Run()
	}()
	if r := <-done; r != nil {
		t.Fatalf("first-user claim panicked: %v", r)
	}
}
