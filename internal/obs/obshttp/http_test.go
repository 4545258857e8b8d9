package obshttp_test

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lifeguard/internal/obs"
	"lifeguard/internal/obs/obshttp"
)

func newTestServer(t *testing.T) (*httptest.Server, *obs.Registry, *obs.Journal) {
	t.Helper()
	reg := obs.New()
	j := obs.NewJournal(16)
	srv := httptest.NewServer(obshttp.NewMux(reg, j))
	t.Cleanup(srv.Close)
	return srv, reg, j
}

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %q", url, resp.StatusCode, body)
	}
	return string(body), resp
}

// rendering is what /metrics must serve for reg once nothing writes to it.
func rendering(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMetricsEndpointServesTheRegistry: /metrics is the registry's own
// Prometheus rendering, byte for byte (obs.TestWritePrometheusFormat pins
// that rendering), under the exposition format's content type.
func TestMetricsEndpointServesTheRegistry(t *testing.T) {
	srv, reg, _ := newTestServer(t)
	reg.Describe("lifeguard_bgp_updates_sent_total", "updates sent")
	reg.Counter("lifeguard_bgp_updates_sent_total").Add(12)
	reg.Gauge("lifeguard_bgp_locrib_routes").Set(7)
	h := reg.Histogram("lifeguard_isolation_duration_seconds", []float64{60, 300})
	h.Observe(45)
	h.Observe(480)

	body, resp := get(t, srv.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("content type = %q, want %q", ct, obs.PrometheusContentType)
	}
	if want := rendering(t, reg); body != want {
		t.Fatalf("/metrics serves\n%s\nwant the registry's rendering\n%s", body, want)
	}
}

func TestHealthz(t *testing.T) {
	srv, _, _ := newTestServer(t)
	body, resp := get(t, srv.URL+"/healthz")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var doc struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("healthz not JSON: %v", err)
	}
	if doc.Status != "ok" || doc.UptimeSeconds < 0 || math.IsNaN(doc.UptimeSeconds) {
		t.Fatalf("healthz doc wrong: %+v", doc)
	}
}

func TestDebugVarsIncludesJournal(t *testing.T) {
	srv, reg, j := newTestServer(t)
	reg.Counter("lifeguard_probe_probes_total").Inc()
	j.Record(90*time.Second, "monitor", "outage", obs.F("vp", 3))

	body, _ := get(t, srv.URL+"/debug/vars")
	var doc struct {
		Snapshot obs.Snapshot `json:"snapshot"`
		Journal  struct {
			Len     int         `json:"len"`
			Cap     int         `json:"cap"`
			Dropped int64       `json:"dropped"`
			Events  []obs.Event `json:"events"`
		} `json:"journal"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	if len(doc.Snapshot.Metrics) != 1 || doc.Snapshot.Metrics[0].Name != "lifeguard_probe_probes_total" {
		t.Fatalf("snapshot missing metric: %+v", doc.Snapshot)
	}
	if doc.Journal.Len != 1 || doc.Journal.Cap != 16 || len(doc.Journal.Events) != 1 {
		t.Fatalf("journal section wrong: %+v", doc.Journal)
	}
	ev := doc.Journal.Events[0]
	if ev.Subsystem != "monitor" || ev.Kind != "outage" || ev.VTime != 90*time.Second {
		t.Fatalf("journal event mangled: %+v", ev)
	}
}

func TestPprofIndexServes(t *testing.T) {
	srv, _, _ := newTestServer(t)
	body, _ := get(t, srv.URL+"/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index missing profiles:\n%s", body)
	}
}
