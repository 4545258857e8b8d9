package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call the benchmark made into a layer of the system.
// Times are nanoseconds since the tracer started. Parent indexes the
// enclosing span (-1 for a root); Op is the id of the workload op the call
// belongs to (0 outside any op: set-up and unit-cost batches).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	// Calls is how many identical calls a unit-cost batch span covers
	// (0 for an ordinary single call).
	Calls int `json:"calls,omitempty"`
}

// tracer records spans in memory and writes them out once, at exit. A nil
// tracer records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int // id of the op in progress, 0 outside any op
	opSeq int
}

func newTracer() *tracer { return &tracer{t0: wallNow()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(since(t.t0)), Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// beginOp opens the root span of the next workload op; spans opened until
// the matching end share its op id.
func (t *tracer) beginOp() int {
	if t == nil {
		return -1
	}
	t.opSeq++
	t.op = t.opSeq
	return t.begin("op")
}

// endOp closes an op's root span; later spans belong to no op.
func (t *tracer) endOp(id int) {
	if t == nil {
		return
	}
	t.end(id)
	t.op = 0
}

// spanSelf returns each span's self time: its duration minus the part of
// it its direct children cover.
func spanSelf(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// selfTimes sums self time per span name.
func selfTimes(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range spanSelf(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// traceFile is the layout of the file a traced run writes.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     hostFacts          `json:"host"`
	SelfMs   map[string]float64 `json:"self_ms_by_name"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64, host hostFacts) error {
	self := make(map[string]float64)
	for name, d := range selfTimes(t.spans) {
		self[name] = float64(d) / float64(time.Millisecond)
	}
	buf, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Host: host, SelfMs: self, Spans: t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
