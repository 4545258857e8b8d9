package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const smokeScale = 0.05

// contractNames reads the metric names BENCHMARK.json promises, sorted.
func contractNames(t *testing.T, list string) []string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[list], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// emittedNames lists a result's metrics the same way.
func emittedNames(r result) []string {
	var names []string
	for name, m := range r.Metrics {
		names = append(names, name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// Each workload, shrunk, must complete with no failed op, and its simulated
// statistics must repeat exactly for one seed — they are counts and virtual
// times, so any difference is nondeterminism in the program or the benchmark.
func TestSmokeEndToEnd(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			o := options{workload: wl.name, seed: 3, seconds: 0.05, scale: smokeScale}
			a, err := runEndToEnd(io.Discard, wl, o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runEndToEnd(io.Discard, wl, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []result{a, b} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("run not clean: %+v", r)
				}
				for _, name := range []string{"setup_s", "ops_per_s", "allocs_per_op", "peak_rss_mb", "sim_latency_s", "updates_per_op"} {
					if m, ok := r.Metrics[name]; !ok || !(m.Value > 0) {
						t.Errorf("metric %s missing or not positive: %+v", name, m)
					}
				}
			}
			if got, want := emittedNames(a), contractNames(t, "end_to_end"); strings.Join(got, ", ") != strings.Join(want, ", ") {
				t.Errorf("end-to-end metrics emitted\n%v\nBENCHMARK.json promises\n%v", got, want)
			}
			for _, name := range []string{"sim_latency_s", "updates_per_op"} {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s differs across two runs of one seed: %v vs %v",
						name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			// A different seed must change what happens.
			o.seed = 4
			c, err := runEndToEnd(io.Discard, wl, o)
			if err != nil {
				t.Fatal(err)
			}
			if c.Metrics["sim_latency_s"].Value == a.Metrics["sim_latency_s"].Value &&
				c.Metrics["updates_per_op"].Value == a.Metrics["updates_per_op"].Value {
				t.Error("seed 4 reproduced seed 3's simulated statistics exactly: the seed is not reaching the inputs")
			}
		})
	}
}

// A paired run — this package built against the repository and against the
// frozen reference, one worker process of each taking turns — must complete
// cleanly on every workload, report the same simulated statistics as the
// unpaired run of the same seed (slicing a window must not change what
// happens in it), and, while the repository still is the reference, read
// the workload's nominal rate give or take the noise of a tiny run.
func TestSmokePaired(t *testing.T) {
	dir := t.TempDir()
	build := func(name string, args ...string) string {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", append(append([]string{"build"}, args...), "-o", bin, ".")...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
		return bin
	}
	subject := build("bench.bin")
	ref := build("ref.bin", "-modfile=ref.mod")
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cmd := exec.Command(subject, "-ref", ref, "-workload", wl.name, "-seed", "3", "-seconds", "0.05", "-scale", "0.05")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var paired result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &paired); err != nil {
				t.Fatalf("last line is not a result: %v\n%s", err, out)
			}
			if !paired.Correct || paired.Failed != 0 || paired.Attempted < 1 {
				t.Fatalf("paired run not clean: %+v", paired)
			}
			alone, err := runEndToEnd(io.Discard, wl, options{workload: wl.name, seed: 3, seconds: 0.05, scale: smokeScale})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"sim_latency_s", "updates_per_op"} {
				if paired.Metrics[name].Value != alone.Metrics[name].Value {
					t.Errorf("%s: paired %v, unpaired %v", name, paired.Metrics[name].Value, alone.Metrics[name].Value)
				}
			}
			if r := paired.Metrics["ops_per_s"].Value / wl.nominal; r < 0.5 || r > 2 {
				t.Errorf("ops_per_s = %g, %.2f× the nominal %g, with subject = reference", paired.Metrics["ops_per_s"].Value, r, wl.nominal)
			}
			if got, want := emittedNames(paired), contractNames(t, "end_to_end"); strings.Join(got, ", ") != strings.Join(want, ", ") {
				t.Errorf("end-to-end metrics emitted\n%v\nBENCHMARK.json promises\n%v", got, want)
			}
		})
	}
}

// A traced run of each workload must emit every per-layer metric, shares
// that sum to one with the unattributed remainder, and a span file.
func TestSmokeTraced(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			o := options{workload: wl.name, seed: 3, seconds: 0.05, scale: smokeScale, trace: true,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			r, err := runTraced(io.Discard, wl, o)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("traced run not clean: correct=%v failed=%d", r.Correct, r.Failed)
			}
			sum := r.Metrics["host.unattributed_frac"].Value
			for _, layer := range []string{"simclock", "bgp", "dataplane", "probe", "monitor", "isolation", "traffic"} {
				m, ok := r.Metrics[layer+".share"]
				if !ok || m.Value < 0 {
					t.Errorf("%s.share missing or negative: %+v", layer, m)
				}
				sum += m.Value
			}
			if !near(sum, 1) {
				t.Errorf("shares + unattributed = %g, want 1", sum)
			}
			for _, name := range []string{"simclock.event_ns", "bgp.route_us", "bgp.poison_converge_ms", "bgp.lookup_ns",
				"dataplane.forward_ns", "traffic.epoch_ms", "probe.ping_us", "probe.traceroute_us", "probe.revtr_us",
				"monitor.round_ms", "atlas.refresh_ms", "isolation.isolate_ms", "topogen.generate_ms"} {
				if m := r.Metrics[name]; !(m.Value > 0) {
					t.Errorf("unit cost %s not measured on %s: %+v", name, wl.name, m)
				}
			}
			// Every workload reports every per-layer metric of the contract.
			if got, want := emittedNames(r), contractNames(t, "per_layer"); strings.Join(got, ", ") != strings.Join(want, ", ") {
				t.Errorf("per-layer metrics emitted\n%v\nBENCHMARK.json promises\n%v", got, want)
			}
		})
	}
}

// The workload names are part of the contract: later issues cite them.
func TestContractWorkloads(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
}
