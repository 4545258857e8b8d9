package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lifeguard"
)

// TestScriptFileMode drives an explicit script — valid for the CLI's
// default topology at this seed — through the same path -script uses, and
// then the generated timelines it replaces: three trials, one report block
// each, no violations on a clean run, the same stdout with -obs on, and the
// chaos counters in a snapshot two runs write byte for byte alike.
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
	v, err := writeReports(&out, &chatter, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("clean scripted run reported %d violations:\n%s", v, out.String())
	}
	if !strings.Contains(out.String(), fmt.Sprintf("linkdown %d %d", s, p)) {
		t.Fatalf("script not echoed in report:\n%s", out.String())
	}

	generated := options{seed: 5, intensity: 1.5, faults: 4, trials: 3}
	var plain bytes.Buffer
	if v, err := writeReports(&plain, &chatter, generated); err != nil || v != 0 {
		t.Fatalf("generated run: %d violations, err %v:\n%s", v, err, plain.String())
	}
	if got := strings.Count(plain.String(), "## trial seed="); got != 3 {
		t.Fatalf("expected 3 trial blocks, found %d:\n%s", got, plain.String())
	}
	var snaps [2][]byte
	for i := range snaps {
		generated.obsPath = filepath.Join(t.TempDir(), "metrics.json")
		var instrumented bytes.Buffer
		if _, err := writeReports(&instrumented, &chatter, generated); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(instrumented.Bytes(), plain.Bytes()) {
			t.Error("stdout differs with -obs enabled")
		}
		if snaps[i], err = os.ReadFile(generated.obsPath); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Contains(snaps[0], []byte("lifeguard_chaos_faults_injected_total")) {
		t.Fatalf("snapshot is missing chaos counters:\n%s", snaps[0])
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Error("two instrumented runs wrote different snapshots")
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
	v, err := writeReports(&out, &chatter, opts)
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
