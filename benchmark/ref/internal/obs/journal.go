package obs

import (
	"fmt"
	"sync"
	"time"
)

// Field is one structured key/value of a journal event. Values are
// pre-rendered strings so events are cheap to drain and trivially
// JSON-encodable; F does the rendering.
type Field struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// F renders a journal field. Call sites on hot paths should guard with
// Journal.Enabled() so the fmt.Sprint cost is only paid when recording.
func F(key string, value any) Field { return Field{Key: key, Value: fmt.Sprint(value)} }

// Event is one journal entry, stamped with simclock virtual time. The
// journal never reads the wall clock: VTime is whatever the recording
// subsystem's scheduler said, so a replayed simulation journals
// identically.
type Event struct {
	VTime     time.Duration `json:"vtime"`
	Subsystem string        `json:"subsystem"`
	Kind      string        `json:"kind"`
	Fields    []Field       `json:"fields,omitempty"`
}

// Journal is a bounded ring buffer of structured events. When full, the
// oldest event is overwritten and the dropped count incremented, so a
// long-running daemon holds the most recent window at a fixed memory
// cost. A nil *Journal is the disabled journal: Record is a one-branch
// no-op and Drain returns nothing.
type Journal struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest event
	n       int // live events
	dropped int64
}

// DefaultJournalCapacity bounds journals created with capacity <= 0.
const DefaultJournalCapacity = 1024

// NewJournal returns a journal holding at most capacity events
// (DefaultJournalCapacity if capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{buf: make([]Event, capacity)}
}

// Enabled reports whether Record stores anything — the guard call sites
// use before rendering fields.
func (j *Journal) Enabled() bool { return j != nil }

// Record appends an event, evicting the oldest when full.
func (j *Journal) Record(vtime time.Duration, subsystem, kind string, fields ...Field) {
	if j == nil {
		return
	}
	e := Event{VTime: vtime, Subsystem: subsystem, Kind: kind, Fields: fields}
	j.mu.Lock()
	if j.n == len(j.buf) {
		j.buf[j.start] = e
		j.start = (j.start + 1) % len(j.buf)
		j.dropped++
	} else {
		j.buf[(j.start+j.n)%len(j.buf)] = e
		j.n++
	}
	j.mu.Unlock()
}

// Drain returns the buffered events oldest-first and empties the journal.
func (j *Journal) Drain() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	out := j.snapshotLocked()
	j.start, j.n = 0, 0
	j.mu.Unlock()
	return out
}

// Events returns the buffered events oldest-first without clearing.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	out := j.snapshotLocked()
	j.mu.Unlock()
	return out
}

func (j *Journal) snapshotLocked() []Event {
	out := make([]Event, j.n)
	for i := 0; i < j.n; i++ {
		out[i] = j.buf[(j.start+i)%len(j.buf)]
	}
	return out
}

// Dropped reports how many events were evicted unread.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Len reports the number of buffered events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Cap reports the ring capacity.
func (j *Journal) Cap() int {
	if j == nil {
		return 0
	}
	return len(j.buf)
}
