package lifeguard_test

// The benchmark harness: one testing.B benchmark per table and figure in
// the paper's evaluation. Each iteration regenerates the artifact from the
// simulated internetwork; headline numbers are attached as custom benchmark
// metrics so `go test -bench . -benchmem` prints the measured values next
// to timing. Run a single one with e.g.
//
//	go test -bench BenchmarkFig6Convergence -benchtime 1x
//
// The textual reports come from `go run ./cmd/lgexp`.

import (
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/experiments"
)

// benchExperiment runs one experiment per iteration and reports the given
// headline values as metrics.
func benchExperiment(b *testing.B, id string, metricKeys ...string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var last *experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSuite([]experiments.Experiment{e}, int64(i+1), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res[0][0]
	}
	b.StopTimer()
	for _, k := range metricKeys {
		if v, ok := last.Values[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// BenchmarkFig1OutageDurations regenerates Figure 1 (outage-duration CDF vs
// share of total unreachability).
func BenchmarkFig1OutageDurations(b *testing.B) {
	benchExperiment(b, "fig1", "frac_events_le_10min", "unavail_share_gt_10min")
}

// BenchmarkFig5ResidualDuration regenerates Figure 5 (residual outage
// duration after X minutes).
func BenchmarkFig5ResidualDuration(b *testing.B) {
	benchExperiment(b, "fig5", "persist5_given_5min", "persist5_given_10min")
}

// BenchmarkSec22AltPaths regenerates the §2.2 spliced-alternate-path study.
func BenchmarkSec22AltPaths(b *testing.B) {
	benchExperiment(b, "alt", "frac_with_alternate", "frac_with_alternate_ge_1h")
}

// BenchmarkSec23ForwardDiversity regenerates the §2.3 provider-diversity
// study.
func BenchmarkSec23ForwardDiversity(b *testing.B) {
	benchExperiment(b, "fwd", "frac_forward_avoidable")
}

// BenchmarkTable1Efficacy regenerates the §5.1 poisoning-efficacy rows of
// Table 1 (testbed poisons, large-scale simulation, isolated failures).
func BenchmarkTable1Efficacy(b *testing.B) {
	benchExperiment(b, "efficacy",
		"frac_peers_found_alternate", "frac_sim_alternate", "frac_isolated_alternate")
}

// BenchmarkFig6Convergence regenerates Figure 6 and the §5.2 global
// convergence percentiles (prepend vs no-prepend).
func BenchmarkFig6Convergence(b *testing.B) {
	benchExperiment(b, "fig6",
		"prepend_nochange_frac_instant", "global_p50_prepend_s", "global_p50_noprepend_s")
}

// BenchmarkSec52Loss regenerates the §5.2 loss-during-convergence study.
func BenchmarkSec52Loss(b *testing.B) {
	benchExperiment(b, "loss", "frac_loss_under_2pct")
}

// BenchmarkSec52Selective regenerates the §5.2 selective-poisoning
// link-avoidance sweep.
func BenchmarkSec52Selective(b *testing.B) {
	benchExperiment(b, "selective", "frac_links_avoided")
}

// BenchmarkSec53Accuracy regenerates the §5.3 isolation-accuracy rows of
// Table 1.
func BenchmarkSec53Accuracy(b *testing.B) {
	benchExperiment(b, "accuracy", "frac_blame_correct", "frac_differs_from_traceroute")
}

// BenchmarkSec54Scalability regenerates the §5.4 overhead measurements.
func BenchmarkSec54Scalability(b *testing.B) {
	benchExperiment(b, "scale", "probes_per_isolation", "isolation_seconds")
}

// BenchmarkTable2UpdateLoad regenerates Table 2 (Internet-wide update load).
func BenchmarkTable2UpdateLoad(b *testing.B) {
	benchExperiment(b, "tab2", "load_I0.01_T0.5_d5", "load_I0.01_T0.5_d15")
}

// BenchmarkSec23Baselines compares the traditional route-control techniques
// against poisoning on remote reverse failures (§2.3 quantified).
func BenchmarkSec23Baselines(b *testing.B) {
	benchExperiment(b, "baselines", "frac_poisoning", "frac_prepending", "disrupt_poisoning")
}

// BenchmarkAblationThreshold sweeps the poison-maturity threshold (design
// choice behind the §4.2 five-minute rule).
func BenchmarkAblationThreshold(b *testing.B) {
	benchExperiment(b, "abl-threshold", "wasted_frac_5m0s", "avoided_5m0s")
}

// BenchmarkAblationPrecheck measures what the alternate-path precheck
// prevents.
func BenchmarkAblationPrecheck(b *testing.B) {
	benchExperiment(b, "abl-precheck", "frac_severed_without_precheck")
}

// BenchmarkAblationDampening sweeps unpoison pacing against RFC 2439
// dampening (why the paper spaced announcements 90 minutes).
func BenchmarkAblationDampening(b *testing.B) {
	benchExperiment(b, "abl-dampening", "frac_unreachable_5m0s", "frac_unreachable_1h30m0s")
}

// BenchmarkEndToEndRepair measures the full §6-style pipeline — detect,
// isolate, poison, recover — on the Fig. 2 network, reporting the virtual
// time from failure injection to restored reachability.
func BenchmarkEndToEndRepair(b *testing.B) {
	var totalRepair time.Duration
	for i := 0; i < b.N; i++ {
		n := buildFig2Bench(b, int64(i+1))
		target := n.RouterAddr(n.Hub(asE))
		sys := lifeguard.NewSystem(n, lifeguard.Config{
			Origin:  asO,
			VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
			Targets: []lifeguard.Addr{target},
		})
		sys.Start()
		n.Clk.RunFor(2 * time.Minute)
		failAt := n.Clk.Now()
		n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
		n.Clk.RunFor(25 * time.Minute)
		recs := sys.EventsOfKind(lifeguard.EventRecovered)
		if len(recs) == 0 {
			b.Fatal("no recovery")
		}
		totalRepair += recs[0].At - failAt
	}
	b.ReportMetric(totalRepair.Minutes()/float64(b.N), "repair_minutes_virtual")
}

func buildFig2Bench(b *testing.B, seed int64) *lifeguard.Network {
	b.Helper()
	bld := lifeguard.NewTopologyBuilder()
	for _, asn := range []lifeguard.ASN{asO, asB, asA, asC, asD, asE, asF} {
		bld.AddAS(asn, "")
		bld.AddRouter(asn, "")
	}
	for _, r := range [][2]lifeguard.ASN{{asO, asB}, {asB, asA}, {asB, asC}, {asC, asD}, {asA, asE}, {asD, asE}, {asF, asA}} {
		bld.Provider(r[0], r[1])
		bld.ConnectAS(r[0], r[1])
	}
	top, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	n, err := lifeguard.AssembleNetwork(top, lifeguard.NetworkOptions{Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return n
}
