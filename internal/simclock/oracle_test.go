package simclock

import (
	"container/heap"
	"fmt"
	"math/bits"
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
	// Millisecond delays keep the clock within seconds of zero, so on their
	// own they never reach a bucket above 33. wide reaches the buckets where
	// the simulator's own events live: b%8 < 5 picks a second, an MRAI
	// interval (22.5 s, 30 s), an outage (15 min) or a soak (48 h);
	// otherwise the delay lands 1 ns before, on, or 1 ns after the next
	// multiple of 2^k past now (k = 16 + b/8, up to 47), where the bucket an
	// event falls in changes.
	wide := func(b int) time.Duration {
		if b%8 < 5 {
			return [...]time.Duration{time.Second, 22500 * time.Millisecond,
				30 * time.Second, 15 * time.Minute, 48 * time.Hour}[b%8]
		}
		k := uint(16 + b/8)
		now := s.Now()
		return (now>>k+1)<<k + time.Duration(b%8-6) - now
	}

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
		switch op := next(); op % 11 {
		case 0, 1, 2, 3:
			schedule(op, delay(next()), next())
		case 10: // 10, 21, 32, 43: the four forms, far ahead
			schedule(op/11, wide(next()), next())
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

// invariants is the white-box half: base ≤ now; every event sits in the
// bucket its time names relative to base; every bucket is in seq order;
// mask has a bit for exactly the non-empty buckets; n counts the events;
// and every vacated slot — b[0][:head0], and every bucket past its length —
// is zero: a stale slot would pin a fired callback and whatever it
// captured.
func (s *Scheduler) invariants() error {
	if s.base > s.now {
		return fmt.Errorf("base %v ahead of now %v", s.base, s.now)
	}
	if s.head0 > len(s.b[0]) || s.head0 > 0 && s.head0 == len(s.b[0]) {
		return fmt.Errorf("head0 %d in a bucket 0 of length %d", s.head0, len(s.b[0]))
	}
	n := 0
	for k, evs := range s.b {
		lo := 0
		if k == 0 {
			lo = s.head0
		}
		live := evs[lo:]
		if set := s.mask&(1<<k) != 0; set != (len(live) > 0) {
			return fmt.Errorf("bucket %d holds %d events, mask bit %v", k, len(live), set)
		}
		for i, ev := range live {
			if ev.at < s.base || bits.Len64(uint64(ev.at^s.base)) != k {
				return fmt.Errorf("event at %v in bucket %d of base %v", ev.at, k, s.base)
			}
			if i > 0 && ev.seq <= live[i-1].seq {
				return fmt.Errorf("bucket %d: seq %d after %d", k, ev.seq, live[i-1].seq)
			}
		}
		n += len(live)
		for i, ev := range evs[:lo] {
			if err := vacant(k, i, ev); err != nil {
				return err
			}
		}
		for i, ev := range evs[len(evs):cap(evs)] {
			if err := vacant(k, len(evs)+i, ev); err != nil {
				return err
			}
		}
	}
	if n != s.n {
		return fmt.Errorf("n = %d, buckets hold %d", s.n, n)
	}
	return nil
}

func vacant(k, i int, ev event) error {
	if ev.at != 0 || ev.seq != 0 || ev.fn != nil || ev.arg != 0 || ev.plain != nil {
		return fmt.Errorf("vacated slot b[%d][%d] holds %+v", k, i, ev)
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
	// A Cancel that empties a bucket: from base 0, times 1..6 and 13 ms
	// land in buckets 20, 21, 22, 22, 23, 23, 24; the 2 ms event is alone
	// in bucket 21 and is cancelled before RunFor drains the rest.
	{0, 3, 0, 1, 4, 0, 2, 5, 0, 3, 6, 0, 0, 7, 0, 1, 8, 0, 2, 15, 0, 4, 1, 8, 15},
	// A Cancel mid-bucket: of 1, 10, 2, 3, 4, 11, 12, 12, 12, 5 ms, the
	// 10, 11 and three 12 ms events share bucket 24; the 11 ms one goes,
	// and the copy-down must keep the rest in seq order for the split
	// that later deals them out.
	{0, 3, 0, 1, 12, 0, 2, 4, 0, 3, 5, 0, 0, 6, 0, 1, 13, 0, 2, 14, 0, 3, 14, 0, 0, 14, 0, 1, 7, 0, 4, 5, 8, 15},
	// Self-cancel, cancel-the-top and cancel-other from inside callbacks.
	{0, 3, 3, 1, 3, 4, 2, 6, 4, 3, 6, 5, 0, 8, 11, 8, 15},
	// Zero, unissued, fired and twice-cancelled ids.
	{5, 0, 0, 2, 0, 5, 7, 6, 4, 0, 4, 0, 5, 200},
	// Panics leave the queue and the id sequence untouched.
	{0, 7, 0, 9, 3, 1, 7, 0, 7, 9, 9, 0, 2, 2, 0, 6, 6},
	// RunUntil into the past and RunFor over a gap.
	{1, 9, 0, 7, 0, 7, 15, 8, 3, 7, 1, 8, 15},
	// Same-instant FIFO across a split: 2^35 ns in all four forms, two from
	// base 0 (bucket 36) and two after the 3 ms event has moved base; 30 s
	// (bucket 35) fires first, then the split at 2^35 deals the four into
	// bucket 0 in seq order, and the second one's callback queues a fifth
	// behind them.
	{10, 158, 0, 0, 5, 0, 21, 158, 1, 10, 2, 0, 6, 32, 158, 0, 43, 158, 0, 1, 2, 0, 6, 6, 6, 6, 6, 6, 6},
	// A split into bucket 0 and higher buckets: once 30 s and 2^35−1 ns
	// have fired, 2^35+1, 2^35 and 2^35−1+1 ms share bucket 36, and the
	// split at 2^35 sends them to buckets 1, 0 and 20.
	{10, 159, 0, 10, 158, 0, 10, 2, 0, 10, 157, 0, 6, 6, 0, 3, 0, 6, 6, 6, 6},
	// Cancel of bucket 0's head, middle and tail, once with six events at
	// base 0 and one popped ...
	{0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 6, 4, 1, 4, 3, 4, 5, 6, 6},
	// ... and once with a bucket 0 a split filled (five at 2^35, after
	// 1 ms); RunFor(0) then pops the survivor at base.
	{10, 158, 0, 21, 158, 0, 32, 158, 0, 43, 158, 0, 10, 158, 0, 0, 3, 0, 6, 6, 4, 1, 4, 3, 4, 4, 8, 0, 6, 6},
	// Cancels that empty a bucket: 48 h alone in bucket 48, then bucket 0
	// after a pop (head0 past its first slot), which must take At(now)
	// again.
	{10, 4, 0, 0, 2, 0, 0, 2, 0, 4, 0, 6, 4, 2, 0, 2, 0, 6, 6},
	// RunUntil with its limit between base and the lowest bucket's
	// earliest event (13 ms against 30 s: nothing moves, then At(13 ms)
	// lands on base 0's buckets); later RunUntil 2 ms into the past with
	// bucket 0 holding an event at now must not run it.
	{10, 2, 0, 7, 15, 0, 2, 0, 7, 15, 0, 3, 0, 0, 3, 0, 6, 7, 0, 6, 6},
	// NextAt (after every op) followed by At(now) while the next event is
	// 48 h ahead, at base 0 and again at 3 ms.
	{10, 4, 0, 0, 2, 0, 6, 0, 5, 0, 6, 10, 4, 0, 0, 2, 0, 0, 3, 0, 6, 6, 6, 6},
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
