package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lifeguard/internal/experiments"
)

// TestReportsByteIdenticalAcrossParallelism is the end-to-end determinism
// check the ISSUE demands: the bytes lgexp writes to stdout for a fixed
// seed must not depend on -parallel. Chatter goes to stderr and is
// allowed to differ (it carries wall-clock timings).
func TestReportsByteIdenticalAcrossParallelism(t *testing.T) {
	base := options{
		ids:   []string{"fig1", "abl-threshold", "abl-dampening"},
		seed:  1,
		seeds: 2,
	}

	render := func(parallel int) []byte {
		t.Helper()
		var out, chatter bytes.Buffer
		opts := base
		opts.parallel = parallel
		if err := writeReports(context.Background(), &out, &chatter, opts); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return out.Bytes()
	}

	want := render(1)
	if len(want) == 0 {
		t.Fatal("sequential run produced no output")
	}
	for _, par := range []int{2, 8} {
		if got := render(par); !bytes.Equal(got, want) {
			t.Errorf("stdout differs between -parallel 1 and -parallel %d:\n--- parallel ---\n%s\n--- sequential ---\n%s", par, got, want)
		}
	}
}

// TestEveryExperimentDeterministic holds every registered experiment, not a
// hand-picked few, to both contracts at once: the report is byte-identical
// run sequentially and uninstrumented, and on 4 workers with -obs on. Two
// seeds give every experiment at least two trials for the pool to reorder.
func TestEveryExperimentDeterministic(t *testing.T) {
	render := func(t *testing.T, id string, parallel int, obsPath string) []byte {
		t.Helper()
		var out, chatter bytes.Buffer
		opts := options{ids: []string{id}, seed: 1, seeds: 2, parallel: parallel, obsPath: obsPath}
		if err := writeReports(context.Background(), &out, &chatter, opts); err != nil {
			t.Fatalf("parallel=%d obs=%q: %v", parallel, obsPath, err)
		}
		return out.Bytes()
	}
	for _, e := range append(experiments.All(), experiments.Ablations()...) {
		t.Run(e.ID, func(t *testing.T) {
			want := render(t, e.ID, 1, "")
			if len(want) == 0 {
				t.Fatal("sequential run produced no output")
			}
			got := render(t, e.ID, 4, filepath.Join(t.TempDir(), "metrics.json"))
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs between (-parallel 1, obs off) and (-parallel 4, obs on):\n--- parallel+obs ---\n%s\n--- sequential ---\n%s", got, want)
			}
		})
	}
}

// TestSingleSeedReportMatchesDirectRun guards the seeds=1 path (no
// aggregation layer): the report must still render and be stable.
func TestSingleSeedReportMatchesDirectRun(t *testing.T) {
	opts := options{ids: []string{"tab2"}, seed: 3, seeds: 1, parallel: 4}
	var a, b, chatter bytes.Buffer
	if err := writeReports(context.Background(), &a, &chatter, opts); err != nil {
		t.Fatal(err)
	}
	opts.parallel = 1
	if err := writeReports(context.Background(), &b, &chatter, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("seeds=1 output differs across parallelism")
	}
}

// TestReportsByteIdenticalWithObsOnOff is the observability-neutrality
// contract: turning instrumentation on (-obs) must not change a single
// byte of the report stream. Metrics are a pure function of the
// simulation, never an input to it.
func TestReportsByteIdenticalWithObsOnOff(t *testing.T) {
	// abl-dampening and abl-precheck build real internetworks, so the
	// instrumented runs actually exercise the bgp/dataplane/probe counters
	// rather than trivially comparing two uninstrumented paths.
	base := options{
		ids:      []string{"abl-dampening", "abl-precheck"},
		seed:     1,
		seeds:    1,
		parallel: 4,
	}

	render := func(obsPath string) []byte {
		t.Helper()
		var out, chatter bytes.Buffer
		opts := base
		opts.obsPath = obsPath
		if err := writeReports(context.Background(), &out, &chatter, opts); err != nil {
			t.Fatalf("obs=%q: %v", obsPath, err)
		}
		return out.Bytes()
	}

	plain := render("")
	if len(plain) == 0 {
		t.Fatal("uninstrumented run produced no output")
	}
	snap := filepath.Join(t.TempDir(), "metrics.json")
	if got := render(snap); !bytes.Equal(got, plain) {
		t.Errorf("stdout differs with -obs enabled:\n--- instrumented ---\n%s\n--- plain ---\n%s", got, plain)
	}
	buf, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if !bytes.Contains(buf, []byte("lifeguard_bgp_updates_sent_total")) {
		t.Errorf("snapshot is missing bgp counters:\n%s", buf)
	}
}

// TestObsSnapshotByteIdenticalAcrossParallelism pins the merge discipline:
// per-trial registries fold into the destination in trial-index order, so
// the snapshot file must not depend on -parallel either.
func TestObsSnapshotByteIdenticalAcrossParallelism(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(parallel int) []byte {
		t.Helper()
		var out, chatter bytes.Buffer
		path := filepath.Join(dir, "metrics.json")
		opts := options{
			ids:      []string{"abl-dampening"},
			seed:     1,
			seeds:    2,
			parallel: parallel,
			obsPath:  path,
		}
		if err := writeReports(context.Background(), &out, &chatter, opts); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return buf
	}

	want := snapshot(1)
	if !bytes.Contains(want, []byte("lifeguard_bgp_dampening_suppressions_total")) {
		t.Fatalf("sequential snapshot is missing the dampening counters:\n%s", want)
	}
	for _, par := range []int{2, 8} {
		if got := snapshot(par); !bytes.Equal(got, want) {
			t.Errorf("metrics snapshot differs between -parallel 1 and -parallel %d", par)
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	var out, chatter bytes.Buffer
	err := writeReports(context.Background(), &out, &chatter, options{ids: []string{"nope"}})
	var unknown *unknownExperimentError
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want *unknownExperimentError", err)
	}
}

// TestGenerousTimeoutStillPasses makes sure the -timeout plumbing reaches
// the runner without tripping on healthy trials.
func TestGenerousTimeoutStillPasses(t *testing.T) {
	var out, chatter bytes.Buffer
	opts := options{ids: []string{"fig1"}, seed: 1, seeds: 1, parallel: 2, timeout: 5 * time.Minute}
	if err := writeReports(context.Background(), &out, &chatter, opts); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no report produced")
	}
}
