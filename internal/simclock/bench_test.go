package simclock

import (
	"fmt"
	"testing"
	"time"
)

// engineMix replays the mix of events the BGP engine keeps on the queue: a
// fixed number of chains, each event scheduling its successor when it fires
// — an update delivery after 25–75 ms (three in four) or an MRAI expiry
// after 22.5–30 s — plus one 30 s ticker, so the queue holds its length.
// It uses only the public API.
type engineMix struct {
	s    *Scheduler
	rng  uint64 // xorshift64: a draw costs a few ns beside the queue's work
	fire func(uint64)
}

const mixTicker = 1

func newEngineMix(s *Scheduler, queueLen int) *engineMix {
	m := &engineMix{s: s, rng: 0x9e3779b97f4a7c15}
	m.fire = m.next
	s.AfterCall(30*time.Second, m.fire, mixTicker)
	for s.Len() < queueLen {
		m.next(0)
	}
	return m
}

func (m *engineMix) next(kind uint64) {
	if kind == mixTicker {
		m.s.AfterCall(30*time.Second, m.fire, mixTicker)
		return
	}
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	r := time.Duration(m.rng >> 2)
	if m.rng&3 != 0 {
		m.s.AfterCall(25*time.Millisecond+r%(50*time.Millisecond), m.fire, 0)
	} else {
		m.s.AfterCall(22500*time.Millisecond+r%(7500*time.Millisecond), m.fire, 0)
	}
}

// BenchmarkScheduler prices one event — pop, fire, schedule its successor —
// at the steady queue lengths of the repair (356) and churn (755)
// workloads and at 5 000.
func BenchmarkScheduler(b *testing.B) {
	for _, n := range []int{356, 755, 5000} {
		b.Run(fmt.Sprintf("queue=%d", n), func(b *testing.B) {
			s := New()
			newEngineMix(s, n)
			for i := 0; i < 20*n; i++ { // grow the buckets, settle the mix
				s.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
