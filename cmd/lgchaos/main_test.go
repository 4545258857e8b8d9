package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lifeguard"
)

// TestReportsByteIdenticalAcrossParallelism is the determinism contract
// the ISSUE demands end to end: the bytes lgchaos writes to stdout for a
// fixed seed must not depend on -parallel. Chatter goes to stderr and is
// allowed to differ (it carries wall-clock timings).
func TestReportsByteIdenticalAcrossParallelism(t *testing.T) {
	base := options{seed: 5, intensity: 1.5, faults: 4, trials: 3}

	render := func(parallel int) []byte {
		t.Helper()
		var out, chatter bytes.Buffer
		opts := base
		opts.parallel = parallel
		v, err := writeReports(context.Background(), &out, &chatter, opts)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if v != 0 {
			t.Fatalf("parallel=%d: %d violations in a clean generated run:\n%s", parallel, v, out.Bytes())
		}
		return out.Bytes()
	}

	want := render(1)
	if len(want) == 0 {
		t.Fatal("sequential run produced no output")
	}
	if got := bytes.Count(want, []byte("## trial seed=")); got != 3 {
		t.Fatalf("expected 3 trial blocks, found %d:\n%s", got, want)
	}
	for _, par := range []int{2, 4} {
		if got := render(par); !bytes.Equal(got, want) {
			t.Errorf("stdout differs between -parallel 1 and -parallel %d:\n--- parallel ---\n%s\n--- sequential ---\n%s", par, got, want)
		}
	}
}

// TestObsSnapshotByteIdenticalAcrossParallelism pins both halves of the
// observability contract: -obs must not change a byte of the report
// stream, and the snapshot itself (per-trial registries merged in
// trial-index order) must not depend on -parallel.
func TestObsSnapshotByteIdenticalAcrossParallelism(t *testing.T) {
	dir := t.TempDir()
	run := func(parallel int, obsPath string) ([]byte, []byte) {
		t.Helper()
		var out, chatter bytes.Buffer
		opts := options{seed: 2, faults: 3, trials: 2, parallel: parallel, obsPath: obsPath}
		if _, err := writeReports(context.Background(), &out, &chatter, opts); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		var snap []byte
		if obsPath != "" {
			var err error
			if snap, err = os.ReadFile(obsPath); err != nil {
				t.Fatalf("parallel=%d: %v", parallel, err)
			}
		}
		return out.Bytes(), snap
	}

	plain, _ := run(1, "")
	seqOut, seqSnap := run(1, filepath.Join(dir, "seq.json"))
	if !bytes.Equal(plain, seqOut) {
		t.Error("stdout differs with -obs enabled")
	}
	if !bytes.Contains(seqSnap, []byte("lifeguard_chaos_faults_injected_total")) {
		t.Fatalf("snapshot is missing chaos counters:\n%s", seqSnap)
	}
	parOut, parSnap := run(4, filepath.Join(dir, "par.json"))
	if !bytes.Equal(parOut, seqOut) {
		t.Error("stdout differs between -parallel 1 and -parallel 4")
	}
	if !bytes.Equal(parSnap, seqSnap) {
		t.Error("metrics snapshot differs between -parallel 1 and -parallel 4")
	}
}

// TestScriptFileMode drives an explicit script — valid for the CLI's
// default topology at this seed — through the same path -script uses.
func TestScriptFileMode(t *testing.T) {
	net, err := lifeguard.GenerateInternet(
		lifeguard.InternetConfig{Seed: 9, NumTransit: defaultTransit, NumStub: defaultStub})
	if err != nil {
		t.Fatal(err)
	}
	// Any adjacent AS pair works; take a stub and its first provider.
	s := net.Gen.Stubs[0]
	p := net.Top.Providers(s)[0]
	script := fmt.Sprintf("at 10s for 2m linkdown %d %d\nat 10m check\n", s, p)

	var out, chatter bytes.Buffer
	opts := options{script: script, seed: 9, trials: 1}
	v, err := writeReports(context.Background(), &out, &chatter, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("clean scripted run reported %d violations:\n%s", v, out.String())
	}
	if !strings.Contains(out.String(), fmt.Sprintf("linkdown %d %d", s, p)) {
		t.Fatalf("script not echoed in report:\n%s", out.String())
	}
}

// TestUnhealedFaultSurfacesViolations: a deliberately unhealed fault must
// drive the violation count (and hence the CLI's exit status) nonzero.
func TestUnhealedFaultSurfacesViolations(t *testing.T) {
	net, err := lifeguard.GenerateInternet(
		lifeguard.InternetConfig{Seed: 9, NumTransit: defaultTransit, NumStub: defaultStub})
	if err != nil {
		t.Fatal(err)
	}
	s := net.Gen.Stubs[0]
	p := net.Top.Providers(s)[0]
	script := fmt.Sprintf("at 10s oneway %d %d\n", p, s)

	var out, chatter bytes.Buffer
	opts := options{script: script, seed: 9, trials: 1}
	v, err := writeReports(context.Background(), &out, &chatter, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 {
		t.Fatalf("unhealed fault produced no violations:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "unhealed") {
		t.Fatalf("report does not name the unhealed invariant:\n%s", out.String())
	}
}

// TestListFaults pins the -list-faults contract: one line per fault
// keyword, sorted by keyword, stable across invocations, and covering the
// control-plane crash the session facade adds.
func TestListFaults(t *testing.T) {
	var a, b bytes.Buffer
	writeFaultList(&a)
	writeFaultList(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("fault list is not stable across invocations")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) != len(lifeguard.ChaosVocabulary()) {
		t.Fatalf("%d lines, want one per vocabulary entry (%d)", len(lines), len(lifeguard.ChaosVocabulary()))
	}
	var kinds []string
	for _, l := range lines {
		kind := strings.Fields(l)[0]
		if len(kinds) > 0 && kind <= kinds[len(kinds)-1] {
			t.Fatalf("fault list not sorted: %q after %q", kind, kinds[len(kinds)-1])
		}
		kinds = append(kinds, kind)
	}
	if !slices.Contains(kinds, "crashcontrol") {
		t.Fatalf("fault list is missing %q:\n%s", "crashcontrol", a.String())
	}
}

// TestBadFlagValuesExitTwo runs the built binary with flag values that used
// to die in a makeslice or index-out-of-range panic: each is a usage error —
// exit 2 and one line naming the flag, never a stack trace.
func TestBadFlagValuesExitTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "lgchaos")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args    []string
		wantMsg string
	}{
		{[]string{"-faults", "-1"}, "-faults"},
		{[]string{"-faults", "0"}, "-faults"},
		{[]string{"-trials", "0"}, "-trials"},
		{[]string{"-stub", "1", "-transit", "1"}, "-stub"},
		{[]string{"-transit", "-3"}, "-transit"},
		{[]string{"-transit", "0"}, "-transit"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			if got := cmd.ProcessState.ExitCode(); got != 2 {
				t.Fatalf("exit %d (%v), want 2\nstderr: %s", got, err, stderr.String())
			}
			if strings.Contains(stderr.String(), "goroutine ") {
				t.Fatalf("stack trace on stderr:\n%s", stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantMsg) {
				t.Fatalf("stderr does not name %s: %q", tc.wantMsg, stderr.String())
			}
		})
	}
}
