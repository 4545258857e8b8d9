package obshttp_test

import (
	"net/http/httptest"
	"net/netip"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/obs"
	"lifeguard/internal/obs/obshttp"
)

// TestSystemMetricsEndpoint is the whole-pipeline acceptance check: run
// the Fig. 2 repair lifecycle on an instrumented network and serve the
// registry over /metrics, which must be the registry's own rendering —
// every major subsystem must have reported counters, not just registered
// them.
func TestSystemMetricsEndpoint(t *testing.T) {
	const (
		asO lifeguard.ASN = 10
		asB lifeguard.ASN = 20
		asA lifeguard.ASN = 30
		asC lifeguard.ASN = 40
		asD lifeguard.ASN = 50
		asE lifeguard.ASN = 60
	)
	b := lifeguard.NewTopologyBuilder()
	for _, asn := range []lifeguard.ASN{asO, asB, asA, asC, asD, asE} {
		b.AddAS(asn, "")
		b.AddRouter(asn, "")
	}
	for _, r := range [][2]lifeguard.ASN{{asO, asB}, {asB, asA}, {asB, asC}, {asC, asD}, {asA, asE}, {asD, asE}} {
		b.Provider(r[0], r[1])
		b.ConnectAS(r[0], r[1])
	}
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	journal := obs.NewJournal(256)
	n, err := lifeguard.AssembleNetwork(top, lifeguard.NetworkOptions{
		Seed:    11,
		Obs:     reg,
		Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:  asO,
		VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
		Targets: []netip.Addr{n.RouterAddr(n.Hub(asE))},
	})
	sys.Start()
	n.Clk.RunFor(3 * time.Minute)
	fid := n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
	n.Clk.RunFor(20 * time.Minute)
	n.HealFailure(fid)
	n.Clk.RunFor(10 * time.Minute)
	sys.Stop()

	srv := httptest.NewServer(obshttp.NewMux(reg, journal))
	defer srv.Close()
	if body, _ := get(t, srv.URL+"/metrics"); body != rendering(t, reg) {
		t.Fatalf("/metrics is not the registry's rendering:\n%s", body)
	}

	// One live counter per subsystem the repair pipeline flows through.
	totals, kinds := map[string]int64{}, map[string]string{}
	for _, m := range reg.Snapshot().Metrics {
		totals[m.Name] += m.Value
		kinds[m.Name] = m.Kind
	}
	for _, name := range []string{
		"lifeguard_bgp_updates_sent_total",
		"lifeguard_dataplane_packets_forwarded_total",
		"lifeguard_probe_probes_total",
		"lifeguard_monitor_ping_rounds_total",
		"lifeguard_monitor_outages_detected_total",
		"lifeguard_isolation_runs_total",
		"lifeguard_remedy_poisons_total",
		"lifeguard_remedy_unpoisons_total",
	} {
		if kinds[name] != "counter" {
			t.Errorf("%s: kind %q, want counter", name, kinds[name])
		}
		if totals[name] <= 0 {
			t.Errorf("%s: total %d, want > 0 after a full repair lifecycle", name, totals[name])
		}
	}

	if journal.Len() == 0 {
		t.Error("event journal is empty after a full repair lifecycle")
	}
}
