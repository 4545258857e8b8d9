package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildDaemon compiles lifeguardd once per test binary into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lifeguardd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSignalShutdownContract pins the daemon's documented exit contract:
// SIGINT and SIGTERM produce a clean shutdown — exit code 0, with the
// final metrics snapshot (valid JSON) as the last thing on stdout.
func TestSignalShutdownContract(t *testing.T) {
	bin := buildDaemon(t)
	for _, tc := range []struct {
		name string
		sig  os.Signal
	}{
		{"SIGINT", os.Interrupt},
		{"SIGTERM", syscall.SIGTERM},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Hours is set far beyond what could simulate during the
			// test, so only the signal can end the run.
			cmd := exec.Command(bin, "-tenants", "2", "-hours", "1000000", "-failures", "2")
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer cmd.Process.Kill()

			// Wait until the daemon reports its tenants — it is then in
			// the main loop and the signal handler is armed.
			var buf bytes.Buffer
			r := bufio.NewReader(io.TeeReader(stdout, &buf))
			for {
				line, err := r.ReadString('\n')
				if err != nil {
					t.Fatalf("daemon ended before startup banner (stderr: %s)", stderr.String())
				}
				if strings.HasPrefix(line, "tenant AS") && strings.Count(buf.String(), "tenant AS") == 2 {
					break
				}
			}
			if err := cmd.Process.Signal(tc.sig); err != nil {
				t.Fatal(err)
			}

			done := make(chan error, 1)
			go func() {
				_, cpErr := io.Copy(io.Discard, r) // buf keeps filling via the tee
				done <- cpErr
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("reading daemon stdout: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("daemon did not shut down within 30s of the signal")
			}
			if err := cmd.Wait(); err != nil {
				t.Fatalf("want exit code 0 after %s, got %v (stderr: %s)", tc.name, err, stderr.String())
			}

			out := buf.String()
			if !strings.Contains(out, "summary: ") {
				t.Fatalf("no summary line before the snapshot:\n%s", out)
			}
			// The snapshot must be the LAST stdout output: everything
			// after the final marker parses as one JSON document.
			marker := "final metrics snapshot:\n"
			i := strings.LastIndex(out, marker)
			if i < 0 {
				t.Fatalf("no final metrics snapshot on stdout:\n%s", out)
			}
			var snap map[string]any
			if err := json.Unmarshal([]byte(out[i+len(marker):]), &snap); err != nil {
				t.Fatalf("trailing stdout after the marker is not a single JSON document: %v", err)
			}
			if _, ok := snap["metrics"]; !ok {
				t.Fatalf("snapshot JSON has no metrics key: %v", snap)
			}
		})
	}
}

// TestHitlessReloadSignal verifies SIGHUP adds a tenant to the live rig
// and SIGUSR1 gracefully restarts tenant 1, neither disturbing the run.
func TestHitlessReloadSignal(t *testing.T) {
	bin := buildDaemon(t)
	cmd := exec.Command(bin, "-tenants", "1", "-hours", "1000000", "-failures", "1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var buf bytes.Buffer
	r := bufio.NewReader(io.TeeReader(stdout, &buf))
	waitFor := func(substr string, n int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for strings.Count(buf.String(), substr) < n {
			if time.Now().After(deadline) {
				t.Fatalf("daemon never printed %q ×%d\nstdout: %s\nstderr: %s", substr, n, buf.String(), stderr.String())
			}
			if _, err := r.ReadString('\n'); err != nil {
				t.Fatalf("daemon ended waiting for %q (stderr: %s)", substr, stderr.String())
			}
		}
	}
	waitFor("announces production", 1)
	cmd.Process.Signal(syscall.SIGHUP)
	waitFor("announces production", 2) // second tenant banner from the reload
	cmd.Process.Signal(syscall.SIGUSR1)
	waitFor("RESTORE", 1)
	if !strings.Contains(buf.String(), "CRASH") {
		t.Fatalf("no control-crash event after SIGUSR1:\n%s", buf.String())
	}
	cmd.Process.Signal(syscall.SIGTERM)
	go io.Copy(io.Discard, r)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("want exit 0, got %v (stderr: %s)", err, stderr.String())
	}
	if c := strings.Count(stderr.String(), "added tenant"); c != 1 {
		t.Fatalf("want 1 hitless reload, saw %d (stderr: %s)", c, stderr.String())
	}
}

// TestFlagValuesNeverPanic runs the built daemon with flag values that used
// to die in a scheduler or divide-by-zero panic. A value no run can use is
// a usage error (exit 2, one line naming the flag); a script denser than
// the warm-up is late, not fatal.
func TestFlagValuesNeverPanic(t *testing.T) {
	bin := buildDaemon(t)
	for _, tc := range []struct {
		args     []string
		wantExit int
		wantMsg  string
	}{
		{[]string{"-hours", "-1"}, 2, "-hours"},
		{[]string{"-hours", "0"}, 2, "-hours"},
		{[]string{"-failures", "-1"}, 2, "-failures"},
		{[]string{"-tenants", "0"}, 2, "-tenants"},
		{[]string{"-stubs", "0"}, 2, "-stubs"},
		{[]string{"-stubs", "3"}, 2, "-stubs"},
		{[]string{"-tenants", "3", "-stubs", "8"}, 2, "-stubs"},
		{[]string{"-transits", "-2"}, 2, "-transits"},
		{[]string{"-transits", "0"}, 2, "-transits"},
		{[]string{"-journal", "-5"}, 2, "-journal"},
		{[]string{"-tenants", "2", "-hours", "1", "-failures", "1000"}, 0, ""},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			if got := cmd.ProcessState.ExitCode(); got != tc.wantExit {
				t.Fatalf("exit %d (%v), want %d\nstderr: %s", got, err, tc.wantExit, stderr.String())
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
