package simclock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// quickConfig draws every run's inputs from one seed, so a mutant either
// fails these properties or passes them on every run (the kill matrix is
// reproduced byte for byte). FuzzScheduler and the 2 000 seeded programs
// of TestSchedulerMatchesReference explore further.
func quickConfig() *quick.Config {
	return &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
}

// Property: for any schedule of events, firing order is exactly
// (time ascending, insertion order among equal times), and the clock never
// moves backwards.
func TestFiringOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New()
		type fired struct {
			at  time.Duration
			seq int
		}
		var got []fired
		for i, off := range offsets {
			at := time.Duration(off) * time.Millisecond
			i := i
			s.At(at, func() { got = append(got, fired{at: s.Now(), seq: i}) })
		}
		s.Run()
		if len(got) != len(offsets) {
			return false
		}
		// Expected order: stable sort by time.
		want := make([]fired, len(offsets))
		for i, off := range offsets {
			want[i] = fired{at: time.Duration(off) * time.Millisecond, seq: i}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		prev := time.Duration(-1)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
			if got[i].at < prev {
				return false // clock went backwards
			}
			prev = got[i].at
		}
		return true
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling any subset of events fires exactly the complement,
// still in order.
func TestCancellationProperty(t *testing.T) {
	f := func(offsets []uint8, cancelMask uint64) bool {
		if len(offsets) > 60 {
			offsets = offsets[:60]
		}
		s := New()
		fired := make(map[int]bool)
		ids := make([]EventID, len(offsets))
		for i, off := range offsets {
			i := i
			ids[i] = s.At(time.Duration(off)*time.Millisecond, func() { fired[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := range ids {
			if cancelMask&(1<<uint(i)) != 0 {
				if !s.Cancel(ids[i]) {
					return false
				}
				cancelled[i] = true
			}
		}
		s.Run()
		for i := range offsets {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Fatal(err)
	}
}
