package experiments

import (
	"strings"
	"testing"
)

// The experiment tests assert the paper's qualitative shape — who wins, by
// roughly what factor, where the crossovers sit — with tolerances wide
// enough to absorb topology-seed variance but tight enough that a broken
// mechanism fails.

func inRange(t *testing.T, r *Result, key string, lo, hi float64) {
	t.Helper()
	v, ok := r.Values[key]
	if !ok {
		t.Fatalf("%s: missing value %q", r.ID, key)
	}
	if v < lo || v > hi {
		t.Fatalf("%s: %s = %.4f, want in [%.4f, %.4f]", r.ID, key, v, lo, hi)
	}
}

// runID regenerates one experiment the way lgexp names it: by id.
func runID(t *testing.T, id string, seed int64) *Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	return runSeq(t, e, seed)
}

func TestFig1Shape(t *testing.T) {
	r := Fig1(1)
	inRange(t, r, "frac_events_le_10min", 0.88, 0.97)   // paper: >90%
	inRange(t, r, "unavail_share_gt_10min", 0.70, 0.92) // paper: 84%
	inRange(t, r, "median_duration_min", 1.4, 3.5)      // paper: 1.5 min
	inRange(t, r, "partial_outages", 7500, 8800)        // paper: 79% of 10308
}

func TestFig5Shape(t *testing.T) {
	r := Fig5(1)
	inRange(t, r, "persist5_given_5min", 0.40, 0.65)  // paper: 51%
	inRange(t, r, "persist5_given_10min", 0.60, 0.85) // paper: 68%
	if r.Values["persist5_given_10min"] <= r.Values["persist5_given_5min"] {
		t.Fatal("persistence must grow with elapsed time")
	}
	inRange(t, r, "avoidable_unavailability_7min_repair", 0.65, 0.90) // paper: up to 80%
}

func TestAltPathsShape(t *testing.T) {
	r := runID(t, "alt", 1)
	inRange(t, r, "frac_with_alternate", 0.40, 0.62)       // paper: 49%
	inRange(t, r, "frac_with_alternate_ge_1h", 0.60, 0.95) // paper: 83%
	if r.Values["frac_with_alternate_ge_1h"] <= r.Values["frac_with_alternate"] {
		t.Fatal("long outages must be MORE likely to have alternates")
	}
	inRange(t, r, "frac_alternate_persisted", 0.95, 1.0) // paper: 98%
}

func TestForwardDiversityShape(t *testing.T) {
	r := runID(t, "fwd", 1)
	inRange(t, r, "frac_forward_avoidable", 0.78, 0.97) // paper: 90%
	inRange(t, r, "cases", 60, 114)
}

func TestEfficacyShape(t *testing.T) {
	r := runID(t, "efficacy", 1)
	inRange(t, r, "frac_peers_found_alternate", 0.65, 0.95) // paper: 77%
	inRange(t, r, "frac_sim_alternate", 0.70, 0.95)         // paper: 90%
	inRange(t, r, "frac_isolated_alternate", 0.70, 1.0)     // paper: 94%
	// Our engine implements the exact policy model, so the validation
	// agreement should beat the paper's 92.5%.
	inRange(t, r, "sim_vs_testbed_agreement", 0.925, 1.0)
	// Two-thirds of cut-off cases are stubs behind their only provider.
	inRange(t, r, "frac_failures_stub_only_provider", 0.5, 1.0)
}

func TestConvergenceShape(t *testing.T) {
	r := runID(t, "fig6", 1)
	// Prepending: unaffected peers converge instantly with one update.
	inRange(t, r, "prepend_nochange_frac_instant", 0.95, 1.0)       // paper: >95%
	inRange(t, r, "prepend_nochange_frac_single_update", 0.95, 1.0) // paper: 97%
	// Without prepending, path exploration breaks that.
	inRange(t, r, "noprepend_nochange_frac_single_update", 0.0, 0.80) // paper: 64%
	if r.Values["noprepend_nochange_frac_single_update"] >=
		r.Values["prepend_nochange_frac_single_update"] {
		t.Fatal("prepending must reduce path exploration")
	}
	// Global convergence: minutes-scale, prepend faster.
	inRange(t, r, "global_p50_prepend_s", 20, 200)   // paper: 91s
	inRange(t, r, "global_p50_noprepend_s", 40, 300) // paper: 133s
	// Table 2's U: ~1 update per unaffected router with prepending
	// (paper: 1.07), more for affected routers (paper: 2.03).
	inRange(t, r, "U_nochange_prepend", 1.0, 1.2)
	inRange(t, r, "U_change_prepend", 1.0, 2.5)
	if r.Values["U_nochange_noprepend"] <= r.Values["U_nochange_prepend"] {
		t.Fatal("prepending must reduce per-router update load")
	}
	if r.Values["global_p50_prepend_s"] >= r.Values["global_p50_noprepend_s"] {
		t.Fatal("prepending must speed global convergence")
	}
}

func TestConvergenceLossShape(t *testing.T) {
	r := runID(t, "loss", 1)
	inRange(t, r, "frac_loss_under_2pct", 0.90, 1.0)  // paper: 98%
	inRange(t, r, "frac_with_spike_round", 0.0, 0.15) // paper: 2%
	inRange(t, r, "poisonings", 5, 25)
}

func TestSelectiveShape(t *testing.T) {
	r := runID(t, "selective", 1)
	inRange(t, r, "frac_links_avoided", 0.55, 0.95) // paper: 73%
}

func TestAccuracyShape(t *testing.T) {
	r := runID(t, "accuracy", 1)
	inRange(t, r, "frac_blame_correct", 0.85, 1.0)           // paper: 93%
	inRange(t, r, "frac_differs_from_traceroute", 0.2, 0.55) // paper: 40%
	inRange(t, r, "frac_direction_correct", 0.80, 1.0)
	inRange(t, r, "episodes", 80, 130)
}

func TestScalabilityShape(t *testing.T) {
	r := runID(t, "scale", 1)
	// Same order of magnitude as the paper's 280 probes / 140 s; our
	// synthetic paths are shorter than Internet paths.
	inRange(t, r, "probes_per_isolation", 40, 400)
	inRange(t, r, "isolation_seconds", 20, 200)
	inRange(t, r, "refresh_paths_per_min", 150, 700) // paper: 225 avg, 502 peak
	inRange(t, r, "probes_per_refreshed_path", 10, 40)
}

func TestTable2Shape(t *testing.T) {
	r := Table2(1)
	// The I=0.01, T=0.5 row is the paper's headline: a few hundred extra
	// daily changes — under 1% of a router's normal churn.
	inRange(t, r, "load_I0.01_T0.5_d5", 200, 600) // paper: 393
	inRange(t, r, "load_I0.01_T0.5_d15", 80, 250) // paper: 137
	if r.Values["load_I0.01_T0.5_d5"] <= r.Values["load_I0.01_T0.5_d15"] {
		t.Fatal("shorter poisoning delay must mean more load")
	}
	// Large deployments become significant (paper: tens of thousands).
	inRange(t, r, "load_I0.5_T1_d5", 15000, 60000)
}

func TestBaselinesShape(t *testing.T) {
	r := runID(t, "baselines", 1)
	inRange(t, r, "scenarios", 10, 30)
	// Poisoning must dominate on repair rate...
	inRange(t, r, "frac_poisoning", 0.9, 1.0)
	if r.Values["frac_poisoning"] < r.Values["frac_prepending"] {
		t.Fatal("poisoning must beat prepending")
	}
	if r.Values["frac_prepending"] > 0.7 {
		t.Fatalf("prepending should mostly fail on remote failures: %.2f", r.Values["frac_prepending"])
	}
	// ...and on surgical precision: fewer working routes disturbed than
	// selective advertising.
	if r.Values["disrupt_poisoning"] >= r.Values["disrupt_selective_advertising"] {
		t.Fatalf("poisoning should disturb fewer working routes (%.1f) than selective advertising (%.1f)",
			r.Values["disrupt_poisoning"], r.Values["disrupt_selective_advertising"])
	}
}

func TestChaosShape(t *testing.T) {
	r := runID(t, "chaos", 1)
	// The hard contract: the invariant checker saw nothing — no loops, no
	// RIB inconsistencies, every timeline converged back to baseline.
	inRange(t, r, "violations_total", 0, 0)
	inRange(t, r, "faults_total", 24, 24) // 8 faults × 3 intensities
	// The monitor saw real outages and the repair loop engaged.
	inRange(t, r, "episodes_total", 8, 80)
	inRange(t, r, "poisons_total", 2, 30)
	inRange(t, r, "repaired_total", 2, 60)
	// Every episode eventually recovered (faults heal and barriers
	// demand reconvergence), on a minutes timescale.
	inRange(t, r, "recovered_frac", 0.95, 1.0)
	inRange(t, r, "ttr_mean_min", 0.5, 10)
}

func TestTrafficShape(t *testing.T) {
	r := runID(t, "traffic", 1)
	// The hard contracts: a clean timeline (no invariant violations) and
	// the headline contrast — the armed repair loop forfeits strictly
	// fewer user-seconds than waiting out the same fault.
	inRange(t, r, "violations_total", 0, 0)
	inRange(t, r, "flows_total", trafficFlows, trafficFlows)
	inRange(t, r, "poisons_total", 1, 10)
	lost := r.Values["user_seconds_lost_norepair"]
	saved := r.Values["user_seconds_lost_repair"]
	if lost <= 0 {
		t.Fatalf("the 20-minute blackhole cost nothing without repair (%v)", lost)
	}
	if saved >= lost {
		t.Fatalf("repair saved nothing: %v with vs %v without", saved, lost)
	}
	inRange(t, r, "user_seconds_saved_frac", 0.3, 1.0)
	inRange(t, r, "availability_repair", r.Values["availability_norepair"], 1.0)
}

func TestMultitenantShape(t *testing.T) {
	r := runID(t, "multitenant", 1)
	// Every placed tenant detects its own failure, and most repair it
	// with a poison; what a tenant's policy refuses it refuses solo too.
	inRange(t, r, "repair_frac_n1", 1, 1)
	inRange(t, r, "repair_frac_n2", 0.5, 1)
	inRange(t, r, "repair_frac_n4", 0.5, 1)
	// The headline: per-tenant outage→poison latency is flat in tenant
	// count (detection grid + 5-minute maturity, regardless of N).
	for _, k := range []string{"ttr_mean_min_n1", "ttr_mean_min_n2", "ttr_mean_min_n4"} {
		inRange(t, r, k, 2, 7)
	}
	if d := r.Values["ttr_mean_min_n4"] - r.Values["ttr_mean_min_n1"]; d > 1 || d < -1 {
		t.Fatalf("per-tenant repair latency not flat in tenant count: n1=%.2f n4=%.2f",
			r.Values["ttr_mean_min_n1"], r.Values["ttr_mean_min_n4"])
	}
}

func TestAllRunnableAndRendered(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is covered by individual shape tests")
	}
	for _, e := range All() {
		res := runSeq(t, e, 2) // a different seed than the shape tests
		if res.ID == "" || len(res.Tables) == 0 {
			t.Fatalf("%s: empty result", e.ID)
		}
		out := res.String()
		if !strings.Contains(out, "paper") {
			t.Fatalf("%s: no paper comparison in output", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig6"); !ok {
		t.Fatal("fig6 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus ID resolved")
	}
	if _, ok := ByID("chaos"); !ok {
		t.Fatal("chaos missing")
	}
	if _, ok := ByID("traffic"); !ok {
		t.Fatal("traffic missing")
	}
	if len(All()) != 15 {
		t.Fatalf("expected 15 experiments, got %d", len(All()))
	}
}

func TestDeterministicResults(t *testing.T) {
	a, b := Fig1(5), Fig1(5)
	for k, v := range a.Values {
		if b.Values[k] != v {
			t.Fatalf("Fig1 value %s differs across runs: %v vs %v", k, v, b.Values[k])
		}
	}
	c := runID(t, "fig6", 3)
	d := runID(t, "fig6", 3)
	if c.Values["global_p50_prepend_s"] != d.Values["global_p50_prepend_s"] {
		t.Fatal("Convergence not deterministic")
	}
}
