package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func testRegistry() *Registry {
	r := New()
	r.Describe("lifeguard_bgp_updates_total", "BGP updates\nprocessed")
	r.Counter("lifeguard_bgp_updates_total", L("dir", "in")).Add(3)
	r.Counter("lifeguard_bgp_updates_total", L("dir", "out")).Add(5)
	r.Gauge("lifeguard_bgp_locrib_routes").Set(42)
	h := r.Histogram("lifeguard_isolation_seconds", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(3)
	return r
}

func TestWritePrometheusFormat(t *testing.T) {
	r := testRegistry()
	// In snapshot order the series of "…_routes" are split by
	// "…_routes_max": one family each, even so.
	r.Gauge("lifeguard_bgp_locrib_routes_max").Set(50)
	r.Gauge("lifeguard_bgp_locrib_routes", L("table", "adj")).Set(7)
	var b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# TYPE lifeguard_bgp_locrib_routes gauge`,
		`lifeguard_bgp_locrib_routes 42`,
		`lifeguard_bgp_locrib_routes{table="adj"} 7`,
		`# TYPE lifeguard_bgp_locrib_routes_max gauge`,
		`lifeguard_bgp_locrib_routes_max 50`,
		`# HELP lifeguard_bgp_updates_total BGP updates\nprocessed`,
		`# TYPE lifeguard_bgp_updates_total counter`,
		`lifeguard_bgp_updates_total{dir="in"} 3`,
		`lifeguard_bgp_updates_total{dir="out"} 5`,
		`# TYPE lifeguard_isolation_seconds histogram`,
		`lifeguard_isolation_seconds_bucket{le="0.5"} 1`,
		`lifeguard_isolation_seconds_bucket{le="1"} 2`,
		`lifeguard_isolation_seconds_bucket{le="+Inf"} 3`,
		`lifeguard_isolation_seconds_sum 4`,
		`lifeguard_isolation_seconds_count 3`,
	}, "\n") + "\n"
	if got := b.String(); got != want {
		t.Fatalf("prometheus text mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("lifeguard_x_total", L("v", "a\"b\\c\nd")).Inc()
	var b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE lifeguard_x_total counter\n" +
		`lifeguard_x_total{v="a\"b\\c\nd"} 1` + "\n"
	if b.String() != want {
		t.Fatalf("escaping mismatch:\n got: %q\nwant: %q", b.String(), want)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	snap := testRegistry().Snapshot()
	var a, b bytes.Buffer
	if err := snap.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("JSON rendering not deterministic")
	}
	var back Snapshot
	if err := json.Unmarshal(a.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if len(back.Metrics) != len(snap.Metrics) {
		t.Fatalf("round trip lost metrics: %d != %d", len(back.Metrics), len(snap.Metrics))
	}
	if back.Help["lifeguard_bgp_updates_total"] == "" {
		t.Fatalf("round trip lost help text")
	}
}
