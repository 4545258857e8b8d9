package simclock

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The reference model: the scheduler as it was before events moved into the
// heap by value — container/heap over *event plus a live map for Cancel —
// kept verbatim apart from the ref prefix and the dropped owner guard. It is
// obviously right and slow; play holds the shipped Scheduler to it.

type refEvent struct {
	at    time.Duration // virtual time
	seq   uint64        // tie-break: FIFO among events at the same instant
	id    EventID
	fn    func()
	index int // heap index, -1 once popped or cancelled
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

type refScheduler struct {
	now     time.Duration
	heap    refHeap
	nextSeq uint64
	nextID  EventID
	live    map[EventID]*refEvent
}

func (s *refScheduler) Now() time.Duration { return s.now }

func (s *refScheduler) Len() int { return len(s.heap) }

func (s *refScheduler) NextAt() (time.Duration, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

func (s *refScheduler) At(t time.Duration, fn func()) EventID {
	if fn == nil {
		panic("simclock: nil event callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("simclock: scheduling at %v before now %v", t, s.now))
	}
	if s.live == nil {
		s.live = make(map[EventID]*refEvent)
	}
	s.nextID++
	s.nextSeq++
	ev := &refEvent{at: t, seq: s.nextSeq, id: s.nextID, fn: fn}
	heap.Push(&s.heap, ev)
	s.live[ev.id] = ev
	return ev.id
}

func (s *refScheduler) After(d time.Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

func (s *refScheduler) Cancel(id EventID) bool {
	ev, ok := s.live[id]
	if !ok {
		return false
	}
	delete(s.live, id)
	heap.Remove(&s.heap, ev.index)
	return true
}

func (s *refScheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	ev := heap.Pop(&s.heap).(*refEvent)
	delete(s.live, ev.id)
	s.now = ev.at
	ev.fn()
	return true
}

func (s *refScheduler) Run() {
	for s.Step() {
	}
}

func (s *refScheduler) RunUntil(t time.Duration) {
	for len(s.heap) > 0 && s.heap[0].at <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

func (s *refScheduler) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// The reference predates the argument-carrying form; a closure is what the
// form replaces, so a closure is its definition.

func (s *refScheduler) AtCall(t time.Duration, fn func(uint64), arg uint64) EventID {
	if fn == nil {
		panic("simclock: nil event callback")
	}
	return s.At(t, func() { fn(arg) })
}

func (s *refScheduler) AfterCall(d time.Duration, fn func(uint64), arg uint64) EventID {
	if fn == nil {
		panic("simclock: nil event callback")
	}
	return s.After(d, func() { fn(arg) })
}

// sched is what play drives: the whole public surface of a Scheduler.
type sched interface {
	Now() time.Duration
	Len() int
	NextAt() (time.Duration, bool)
	At(time.Duration, func()) EventID
	After(time.Duration, func()) EventID
	AtCall(time.Duration, func(uint64), uint64) EventID
	AfterCall(time.Duration, func(uint64), uint64) EventID
	Cancel(EventID) bool
	Step() bool
	Run()
	RunUntil(time.Duration)
	RunFor(time.Duration)
}

// play interprets prog as a sequence of scheduler operations on s and
// returns everything observable: ids issued, firing order with the clock and
// argument each callback saw, Cancel/Step results, panics, and now/Len/NextAt
// after every operation. What a callback does when it fires — schedule at
// the same instant or later, cancel itself, cancel the queue's current top,
// cancel some other id — is fixed by a program byte read when it is
// scheduled, so the program is a function of prog and of s's answers alone.
// check runs after every operation and inside every callback.
func play(s sched, prog []byte, check func() error) (log []string) {
	logf := func(format string, a ...any) { log = append(log, fmt.Sprintf(format, a...)) }
	verify := func() {
		if err := check(); err != nil {
			logf("INVARIANT: %v", err)
		}
	}
	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	// Delays are a few milliseconds so that events collide on an instant;
	// two below zero so that After's clamp is exercised.
	delay := func(b int) time.Duration { return time.Duration(b%16-2) * time.Millisecond }

	type pend struct {
		id EventID
		at time.Duration
	}
	var ids []EventID  // every id issued, fired or not: Cancel picks from it
	var pending []pend // what should still be queued, to name the top
	drop := func(id EventID) {
		for i := range pending {
			if pending[i].id == id {
				pending = append(pending[:i], pending[i+1:]...)
				return
			}
		}
	}
	cancel := func(why string, id EventID) {
		ok := s.Cancel(id)
		logf("cancel %s id=%d -> %v", why, id, ok)
		if ok {
			drop(id)
		}
	}

	var schedule func(form int, d time.Duration, behave int)
	fired := func(self EventID, behave int, arg uint64) {
		logf("fire id=%d arg=%d now=%v len=%d", self, arg, s.Now(), s.Len())
		drop(self)
		switch behave % 6 {
		case 1: // same instant: runs after everything already queued for it
			schedule(behave/6, 0, 0)
		case 2:
			schedule(behave/6, delay(behave/6), 0)
		case 3:
			cancel("self", self)
		case 4:
			if len(pending) > 0 {
				top := pending[0]
				for _, p := range pending[1:] {
					if p.at < top.at || p.at == top.at && p.id < top.id {
						top = p
					}
				}
				cancel("top", top.id)
			}
		case 5:
			cancel("other", ids[behave/6%len(ids)])
		}
		verify()
	}
	schedule = func(form int, d time.Duration, behave int) {
		var id EventID
		plain := func() { fired(id, behave, 0) }
		call := func(arg uint64) { fired(id, behave, arg) }
		arg := uint64(len(ids))<<8 | uint64(behave)
		switch form % 4 {
		case 0:
			d = max(d, 0)
			id = s.At(s.Now()+d, plain)
		case 1:
			id = s.After(d, plain)
		case 2:
			d = max(d, 0)
			id = s.AtCall(s.Now()+d, call, arg)
		case 3:
			id = s.AfterCall(d, call, arg)
		}
		logf("sched form=%d id=%d", form%4, id)
		ids = append(ids, id)
		pending = append(pending, pend{id: id, at: s.Now() + max(d, 0)})
	}
	mustPanic := func(what string, f func()) {
		defer func() { logf("%s: panic %v", what, recover()) }()
		f()
	}

	for pos < len(prog) {
		switch op := next(); op % 10 {
		case 0, 1, 2, 3:
			schedule(op, delay(next()), next())
		case 4:
			if len(ids) > 0 {
				cancel("any", ids[next()%len(ids)])
			}
		case 5: // never issued: zero, and one past the last
			cancel("zero", 0)
			cancel("unissued", EventID(len(ids)+1+next()))
		case 6:
			logf("step -> %v", s.Step())
		case 7: // possibly into the past: the clock must not move back
			s.RunUntil(s.Now() + delay(next()))
		case 8:
			s.RunFor(delay(next()) + 2*time.Millisecond)
		case 9:
			past := s.Now() - time.Duration(1+next())
			mustPanic("At past", func() { s.At(past, func() {}) })
			mustPanic("AtCall past", func() { s.AtCall(past, func(uint64) {}, 0) })
			mustPanic("At nil", func() { s.At(s.Now(), nil) })
			mustPanic("After nil", func() { s.After(0, nil) })
			mustPanic("AtCall nil", func() { s.AtCall(s.Now(), nil, 0) })
			mustPanic("AfterCall nil", func() { s.AfterCall(0, nil, 0) })
		}
		at, ok := s.NextAt()
		logf("now=%v len=%d next=%v,%v", s.Now(), s.Len(), at, ok)
		verify()
	}
	s.Run()
	logf("drained now=%v len=%d pending=%d", s.Now(), s.Len(), len(pending))
	verify()
	return log
}

// invariants is the white-box half: every node of the heap sorts before its
// children, and every vacated slot of the backing array is zero — a stale
// slot would pin a fired callback and whatever it captured.
func (s *Scheduler) invariants() error {
	for i := 1; i < len(s.heap); i++ {
		if p := (i - 1) / arity; s.heap[i].before(&s.heap[p]) {
			return fmt.Errorf("heap[%d] sorts before its parent heap[%d]", i, p)
		}
	}
	for i, ev := range s.heap[len(s.heap):cap(s.heap)] {
		if ev.at != 0 || ev.seq != 0 || ev.fn != nil || ev.arg != 0 || ev.plain != nil {
			return fmt.Errorf("vacated slot %d holds %+v", len(s.heap)+i, ev)
		}
	}
	return nil
}

func checkAgainstReference(t *testing.T, prog []byte) {
	t.Helper()
	s := New()
	got := play(s, prog, s.invariants)
	want := play(&refScheduler{}, prog, func() error { return nil })
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			g := "<nothing>"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("program %v: observation %d:\n   scheduler: %s\n   reference: %s", prog, i, g, want[i])
		}
	}
	if len(got) > len(want) {
		t.Fatalf("program %v: scheduler logged %q beyond the reference's end", prog, got[len(want)])
	}
}

// oracleSeeds are hand-written programs for the cases the issue names; the
// fuzzer starts from them and `go test` replays them.
var oracleSeeds = [][]byte{
	{},
	// Same-instant FIFO across all four forms, then drain.
	{0, 5, 0, 1, 5, 0, 2, 5, 0, 3, 5, 0, 6, 6, 6, 6},
	// A callback that schedules at its own instant behind queued work.
	{0, 4, 1, 0, 4, 0, 2, 4, 7, 7, 15},
	// Cancel mid-heap where the event that fills the hole must sink: times
	// 1..6 and 13 ms land at heap[0..6] in order, heap[5] and heap[6] under
	// heap[1]; cancelling heap[1] puts the 13 ms event above the 6 ms one.
	{0, 3, 0, 1, 4, 0, 2, 5, 0, 3, 6, 0, 0, 7, 0, 1, 8, 0, 2, 15, 0, 4, 1, 8, 15},
	// ... and where it must rise: 1, 10, 2, 3, 4, 11, 12, 12, 12, 5 ms put
	// the 5 ms event last, under heap[2]; cancelling heap[5] moves it under
	// heap[1], the 10 ms event.
	{0, 3, 0, 1, 12, 0, 2, 4, 0, 3, 5, 0, 0, 6, 0, 1, 13, 0, 2, 14, 0, 3, 14, 0, 0, 14, 0, 1, 7, 0, 4, 5, 8, 15},
	// Self-cancel, cancel-the-top and cancel-other from inside callbacks.
	{0, 3, 3, 1, 3, 4, 2, 6, 4, 3, 6, 5, 0, 8, 11, 8, 15},
	// Zero, unissued, fired and twice-cancelled ids.
	{5, 0, 0, 2, 0, 5, 7, 6, 4, 0, 4, 0, 5, 200},
	// Panics leave the queue and the id sequence untouched.
	{0, 7, 0, 9, 3, 1, 7, 0, 7, 9, 9, 0, 2, 2, 0, 6, 6},
	// RunUntil into the past and RunFor over a gap.
	{1, 9, 0, 7, 0, 7, 15, 8, 3, 7, 1, 8, 15},
}

func TestSchedulerMatchesReference(t *testing.T) {
	for _, prog := range oracleSeeds {
		checkAgainstReference(t, prog)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		prog := make([]byte, rng.Intn(300))
		rng.Read(prog)
		checkAgainstReference(t, prog)
	}
}

func FuzzScheduler(f *testing.F) {
	for _, prog := range oracleSeeds {
		f.Add(prog)
	}
	f.Fuzz(checkAgainstReference)
}

// TestZeroEventIDNeverIssued pins what six ticker fields across the tree
// rely on: the zero EventID means "nothing armed", and cancelling it is a
// harmless false.
func TestZeroEventIDNeverIssued(t *testing.T) {
	s := New()
	if s.Cancel(0) {
		t.Fatal("Cancel(0) on an empty scheduler reported a pending event")
	}
	if id := s.At(0, func() {}); id != 1 {
		t.Fatalf("first EventID = %d, want 1", id)
	}
	if id := s.AtCall(0, func(uint64) {}, 0); id != 2 {
		t.Fatalf("second EventID = %d, want 2", id)
	}
	if s.Cancel(0) {
		t.Fatal("Cancel(0) reported a pending event")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after Cancel(0), want 2", s.Len())
	}
}
