package experiments

import "testing"

func TestAblationThresholdShape(t *testing.T) {
	r := runID(t, "abl-threshold", 1)
	// Poisoning immediately wastes most poisons on self-healing blips.
	inRange(t, r, "wasted_frac_0s", 0.5, 0.9)
	// The paper's ~5 min threshold cuts waste sharply...
	inRange(t, r, "wasted_frac_5m0s", 0.05, 0.35)
	// ...while still avoiding the bulk of the downtime.
	inRange(t, r, "avoided_5m0s", 0.65, 0.85)
	// Monotonicity of the trade-off.
	if r.Values["poisons_0s"] <= r.Values["poisons_15m0s"] {
		t.Fatal("poison volume must shrink with threshold")
	}
	if r.Values["avoided_0s"] < r.Values["avoided_15m0s"] {
		t.Fatal("avoided downtime must shrink with threshold")
	}
	if r.Values["wasted_frac_0s"] <= r.Values["wasted_frac_5m0s"] {
		t.Fatal("waste must shrink with threshold")
	}
}

func TestAblationPrecheckShape(t *testing.T) {
	r := runID(t, "abl-precheck", 1)
	// A substantial share of naive poisons sever their own victim —
	// that is exactly what the precheck prevents.
	inRange(t, r, "frac_severed_without_precheck", 0.15, 0.70)
	// The static precheck must predict the protocol outcome exactly
	// (same policy model; proven equivalent in the splice tests).
	inRange(t, r, "precheck_agreement", 0.99, 1.0)
	inRange(t, r, "cases", 30, 400)
}

func TestAblationDampeningShape(t *testing.T) {
	r := runID(t, "abl-dampening", 1)
	fast := r.Values["frac_suppressing_5m0s"]
	slow := r.Values["frac_suppressing_1h30m0s"]
	if fast <= slow {
		t.Fatalf("faster cycling must suppress more: 5m=%.2f vs 90m=%.2f", fast, slow)
	}
	inRange(t, r, "frac_suppressing_5m0s", 0.5, 1.0)
	inRange(t, r, "frac_suppressing_1h30m0s", 0.0, 0.3)
	// Suppression translates into lost reachability.
	inRange(t, r, "frac_unreachable_5m0s", 0.5, 1.0)
	inRange(t, r, "frac_unreachable_1h30m0s", 0.0, 0.25)
}

func TestAblationsListedAndResolvable(t *testing.T) {
	if len(Ablations()) != 3 {
		t.Fatalf("ablations = %d", len(Ablations()))
	}
	for _, e := range Ablations() {
		if _, ok := ByID(e.ID); !ok {
			t.Fatalf("%s not resolvable via ByID", e.ID)
		}
	}
}
