package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	// op [0,100) ⊃ runfor [10,70) ⊃ inner [20,30); op ⊃ heal [80,90).
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "runfor", Start: 10, End: 70, Parent: 0},
		{Name: "inner", Start: 20, End: 30, Parent: 1},
		{Name: "heal", Start: 80, End: 90, Parent: 0},
		{Name: "runfor", Start: 200, End: 240, Parent: -1},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"op": 30, "runfor": 50 + 40, "inner": 10, "heal": 10}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 100+40 { // self times partition the root spans
		t.Errorf("self times sum to %d, want 140", sum)
	}
}

func TestTracerNestsAndTagsOps(t *testing.T) {
	tr := newTracer()
	setup := tr.begin("setup")
	tr.end(setup)
	op := tr.beginOp()
	tr.do("dataplane.InjectFailure", func() {})
	tr.do("simclock.RunFor[outage]", func() { tr.do("nested", func() {}) })
	tr.endOp(op)
	tr.do("between", func() {})
	op2 := tr.beginOp()
	tr.endOp(op2)

	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[s.Name+"#"+string(rune('0'+s.Op))] = s
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if s := byName["setup#0"]; s.Parent != -1 {
		t.Errorf("setup should be a root outside any op: %+v", s)
	}
	if s := byName["dataplane.InjectFailure#1"]; s.Parent != op {
		t.Errorf("inject should be a child of op 1: %+v", s)
	}
	if s := byName["nested#1"]; tr.spans[s.Parent].Name != "simclock.RunFor[outage]" {
		t.Errorf("nested span has the wrong parent: %+v", s)
	}
	if _, ok := byName["between#0"]; !ok {
		t.Error("a span between ops must carry op id 0")
	}
	if s := tr.spans[op2]; s.Op != 2 {
		t.Errorf("second op has id %d, want 2", s.Op)
	}

	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := tr.write(path, "repair", 7, readHostFacts()); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "repair" || tf.Seed != 7 || len(tf.Spans) != len(tr.spans) || tf.Host.NProc < 1 {
		t.Errorf("trace file round trip lost data: %+v", tf)
	}
	if _, ok := tf.SelfMs["op"]; !ok {
		t.Error("trace file has no self time for op spans")
	}
}

// A nil tracer is the untraced mode: every method must be a no-op.
func TestNilTracer(t *testing.T) {
	var tr *tracer
	id := tr.beginOp()
	tr.do("x", func() {})
	tr.end(tr.begin("y"))
	tr.endOp(id)
}
