package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"lifeguard/internal/experiments"
)

// TestEveryExperimentDeterministic holds every registered experiment, not a
// hand-picked few, to the observability contract: the report is
// byte-identical uninstrumented and with -obs on. Two seeds give every
// experiment at least two trials whose registries merge.
func TestEveryExperimentDeterministic(t *testing.T) {
	render := func(t *testing.T, id string, obsPath string) []byte {
		t.Helper()
		var out, chatter bytes.Buffer
		opts := options{ids: []string{id}, seed: 1, seeds: 2, obsPath: obsPath}
		if _, err := writeReports(&out, &chatter, opts); err != nil {
			t.Fatalf("obs=%q: %v", obsPath, err)
		}
		return out.Bytes()
	}
	for _, e := range append(experiments.All(), experiments.Ablations()...) {
		t.Run(e.ID, func(t *testing.T) {
			want := render(t, e.ID, "")
			if len(want) == 0 {
				t.Fatal("uninstrumented run produced no output")
			}
			got := render(t, e.ID, filepath.Join(t.TempDir(), "metrics.json"))
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs between obs off and obs on:\n--- obs ---\n%s\n--- plain ---\n%s", got, want)
			}
		})
	}
}

// TestSingleSeedReportMatchesDirectRun guards the seeds=1 path (no
// aggregation layer): the report is the experiment's own result, rendered
// once.
func TestSingleSeedReportMatchesDirectRun(t *testing.T) {
	e, ok := experiments.ByID("tab2")
	if !ok {
		t.Fatal("experiment \"tab2\" missing")
	}
	res, err := experiments.RunSuite([]experiments.Experiment{e}, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out, chatter bytes.Buffer
	if _, err := writeReports(&out, &chatter, options{ids: []string{"tab2"}, seed: 3, seeds: 1}); err != nil {
		t.Fatal(err)
	}
	if want := res[0][0].String() + "\n"; out.String() != want {
		t.Errorf("seeds=1 report differs from the direct run:\n%s\nwant\n%s", out.String(), want)
	}
}

// TestReportsByteIdenticalWithObsOnOff is the observability-neutrality
// contract: turning instrumentation on (-obs) must not change a single
// byte of the report stream. Metrics are a pure function of the
// simulation, never an input to it, so two instrumented runs write the
// same snapshot too.
func TestReportsByteIdenticalWithObsOnOff(t *testing.T) {
	// abl-dampening and abl-precheck build real internetworks, so the
	// instrumented runs actually exercise the bgp/dataplane/probe counters
	// rather than trivially comparing two uninstrumented paths.
	base := options{
		ids:   []string{"abl-dampening", "abl-precheck"},
		seed:  1,
		seeds: 1,
	}

	render := func(obsPath string) []byte {
		t.Helper()
		var out, chatter bytes.Buffer
		opts := base
		opts.obsPath = obsPath
		if _, err := writeReports(&out, &chatter, opts); err != nil {
			t.Fatalf("obs=%q: %v", obsPath, err)
		}
		return out.Bytes()
	}

	plain := render("")
	if len(plain) == 0 {
		t.Fatal("uninstrumented run produced no output")
	}
	dir := t.TempDir()
	snap, again := filepath.Join(dir, "metrics.json"), filepath.Join(dir, "again.json")
	if got := render(snap); !bytes.Equal(got, plain) {
		t.Errorf("stdout differs with -obs enabled:\n--- instrumented ---\n%s\n--- plain ---\n%s", got, plain)
	}
	render(again)
	buf, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if buf2, err := os.ReadFile(again); err != nil || !bytes.Equal(buf2, buf) {
		t.Errorf("two instrumented runs wrote different snapshots (%v)", err)
	}
	for _, series := range []string{"lifeguard_bgp_updates_sent_total", "lifeguard_bgp_dampening_suppressions_total"} {
		if !bytes.Contains(buf, []byte(series)) {
			t.Errorf("snapshot is missing %s:\n%s", series, buf)
		}
	}
}

// TestUnknownExperimentRejected: an unknown experiment id is a typed error,
// and the built binary turns it, like a -seeds value below 1, into exit 2
// and one line naming the problem.
func TestUnknownExperimentRejected(t *testing.T) {
	var out, chatter bytes.Buffer
	_, err := writeReports(&out, &chatter, options{ids: []string{"nope"}, seeds: 1})
	var unknown *unknownExperimentError
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want *unknownExperimentError", err)
	}

	bin := build(t)
	for _, tc := range []struct {
		args    []string
		wantMsg string
	}{
		{[]string{"-exp", "nope"}, "unknown experiment"},
		{[]string{"-seeds", "0"}, "-seeds"},
		{[]string{"-seeds", "-2"}, "-seeds"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if got := cmd.ProcessState.ExitCode(); got != 2 {
			t.Errorf("%v: exit %d (%v), want 2\nstderr: %s", tc.args, got, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.wantMsg) || stdout.Len() != 0 {
			t.Errorf("%v: stderr %q does not name %s, or a report was written", tc.args, stderr.String(), tc.wantMsg)
		}
	}
}

// build compiles lgexp into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lgexp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestViolationsSetExitStatus: the invariant violations lgexp exits 3 on
// are every trial's, summed over experiments and seeds, and a run whose
// trials count none exits 0 with its reports and -obs snapshot written.
func TestViolationsSetExitStatus(t *testing.T) {
	withCount := func(v float64) *experiments.Result {
		return &experiments.Result{Values: map[string]float64{"violations_total": v}}
	}
	results := [][]*experiments.Result{
		{withCount(2), withCount(0)},
		{{Values: map[string]float64{"faults_total": 8}}, withCount(1)},
	}
	if got := countViolations(results); got != 3 {
		t.Fatalf("countViolations = %d, want 3", got)
	}

	snap := filepath.Join(t.TempDir(), "metrics.json")
	cmd := exec.Command(build(t), "-exp", "chaos,traffic", "-obs", snap)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if got := cmd.ProcessState.ExitCode(); got != 0 {
		t.Fatalf("clean chaos run: exit %d (%v), want 0\nstderr: %s", got, err, stderr.String())
	}
	if _, err := os.Stat(snap); err != nil || stdout.Len() == 0 || strings.Contains(stderr.String(), "violations") {
		t.Fatalf("clean chaos run: snapshot %v, %d bytes of report, stderr %q", err, stdout.Len(), stderr.String())
	}
}
