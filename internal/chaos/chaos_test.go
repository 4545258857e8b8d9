package chaos

import (
	"math"
	"strings"
	"testing"
	"time"

	"lifeguard/internal/dataplane"
	"lifeguard/internal/nettest"
	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
)

// fig2Target wraps the canonical Fig. 2 internetwork as a chaos target.
func fig2Target(t *testing.T) (*Target, *nettest.Net) {
	t.Helper()
	n := nettest.Fig2(t)
	return &Target{
		Top: n.Top, Clk: n.Clk, Eng: n.Eng, Plane: n.Plane,
		Journal: obs.NewJournal(4096),
	}, n
}

func TestScriptRoundTrip(t *testing.T) {
	text := `
# exercise the whole vocabulary
at 10s for 2m linkdown 20 30
at 12s check
at 15s for 1m oneway 30 20
at 20s for 5m loss 40 0.3 7
at 30s for 1m sessionreset 40 50
at 40s for 2m crash 70
at 45s for 90s crashcontrol 10
at 50s for 3m delay 30 60 2s
at 1m for 2m blackhole 30 10.10.0.0/16
at 10m oneway 20 10
at 12m check
`
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Steps) != 11 {
		t.Fatalf("parsed %d steps, want 11", len(s.Steps))
	}
	canon := s.String()
	s2, err := Parse(canon)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if got := s2.String(); got != canon {
		t.Fatalf("round trip diverged:\n%s\nvs\n%s", canon, got)
	}
	// The never-healed step must render without a "for" clause.
	if !strings.Contains(canon, "at 10m0s oneway 20 10\n") {
		t.Fatalf("canonical form missing bare oneway line:\n%s", canon)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"at",
		"at 10s",
		"at nonsense check",
		"at 10s check extra",
		"at 10s for -5s linkdown 1 2",
		"at 10s for 1m frobnicate 1 2",
		"at 10s for 1m linkdown 1",
		"at 10s for 1m loss 1 huh 3",
		"at 10s for 1m loss 1 NaN 3", // parses as a float, equals nothing
		"at 10s for 1m blackhole 1 not-a-prefix",
		"at 10s for 1m linkdown 9999999999 2", // overflows 32-bit ASN space
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestGenerateScriptDeterministic(t *testing.T) {
	tgt, _ := fig2Target(t)
	cfg := GenConfig{Seed: 7, N: 6, Intensity: 2}
	s1, err := GenerateScript(tgt.Top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := GenerateScript(tgt.Top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatalf("same seed, different scripts:\n%s\nvs\n%s", s1, s2)
	}
	cfg.Seed = 8
	s3, err := GenerateScript(tgt.Top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s3.String() == s1.String() {
		t.Fatal("different seeds produced identical scripts")
	}
	// Every generated fault must be valid for the topology.
	if err := s1.Validate(tgt); err != nil {
		t.Fatalf("generated script invalid: %v", err)
	}
	// Generated scripts schedule N faults that all heal within the
	// duration cap, and end on one barrier settle after the last heal.
	faults, lastHeal := 0, time.Duration(0)
	for _, st := range s1.Steps[:len(s1.Steps)-1] {
		if st.Check {
			t.Fatalf("unexpected mid-script check at %v", st.At)
		}
		faults++
		if st.For <= 0 || st.For > maxFaultDuration {
			t.Fatalf("generated fault %v lasts %v, want (0, %v]", st.Fault, st.For, maxFaultDuration)
		}
		lastHeal = max(lastHeal, st.At+st.For)
	}
	if faults != cfg.N {
		t.Fatalf("%d faults, want %d", faults, cfg.N)
	}
	if last := s1.Steps[len(s1.Steps)-1]; !last.Check || last.At != lastHeal+settle {
		t.Fatalf("final step %+v, want a check at the last heal %v + %v", last, lastHeal, settle)
	}
}

// TestRunnerCleanScript exercises every fault kind in one scripted run and
// expects zero violations: everything heals, the control plane converges
// back to baseline, and the origin stays reachable at the end.
func TestRunnerCleanScript(t *testing.T) {
	tgt, n := fig2Target(t)
	text := `
at 10s for 2m linkdown 20 30
at 3m for 1m oneway 30 20
at 5m for 2m loss 40 0.5 99
at 8m for 1m sessionreset 40 50
at 10m for 2m crash 70
at 13m for 1m delay 30 60 5s
at 15m for 1m blackhole 30 10.10.0.0/16
at 18m check
`
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	r, err := NewRunner(tgt, s, Options{
		Obs: reg,
		Reach: []ReachProbe{
			{From: n.Hub(nettest.E), To: tgt.Top.Router(n.Hub(nettest.O)).Addr},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("violations in clean run:\n%s", rep)
	}
	if rep.Injected != 7 || rep.Healed != 7 {
		t.Fatalf("injected %d healed %d, want 7/7", rep.Injected, rep.Healed)
	}
	if rep.Barriers != 2 { // scripted + implicit final
		t.Fatalf("barriers = %d, want 2", rep.Barriers)
	}
	if rep.Err() != nil {
		t.Fatalf("Err = %v", rep.Err())
	}
	// Journal saw the lifecycle.
	kinds := map[string]int{}
	for _, ev := range tgt.Journal.Events() {
		if ev.Subsystem == "chaos" {
			kinds[ev.Kind]++
		}
	}
	if kinds["arm"] != 1 || kinds["inject"] != 7 || kinds["heal"] != 7 ||
		kinds["barrier"] != 2 || kinds["finish"] != 1 {
		t.Fatalf("journal kinds = %v", kinds)
	}
}

// TestRunnerCatchesUnhealedFault is the negative test of the acceptance
// criteria: a fault deliberately left active must surface as an
// unhealed-fault violation at the final barrier.
func TestRunnerCatchesUnhealedFault(t *testing.T) {
	tgt, _ := fig2Target(t)
	s, err := Parse("at 10s oneway 30 20\n")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(tgt, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("unhealed fault not flagged")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Invariant == InvUnhealed && strings.Contains(v.Detail, "oneway 30 20") {
			found = true
		}
		if v.Invariant == InvBaseline || v.Invariant == InvReachability {
			t.Fatalf("healthy-state invariant %v ran with a fault active", v.Invariant)
		}
	}
	if !found {
		t.Fatalf("no unhealed-fault violation in:\n%s", rep)
	}
}

// TestRunnerCatchesBaselineDivergence: routing state mutated behind the
// runner's back (an origination the script knows nothing about) must trip
// the baseline invariant once all scripted faults are healed.
func TestRunnerCatchesBaselineDivergence(t *testing.T) {
	tgt, _ := fig2Target(t)
	tgt.Clk.After(30*time.Second, func() {
		tgt.Eng.Originate(nettest.F, topo.ProductionPrefix(nettest.F))
	})
	s := &Script{Steps: []Step{
		{At: 10 * time.Second, Fault: &SessionReset{A: nettest.C, B: nettest.D}, For: 20 * time.Second},
		{At: time.Minute, Check: true},
	}}
	r, err := NewRunner(tgt, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		found = found || v.Invariant == InvBaseline
	}
	if !found {
		t.Fatalf("baseline divergence not flagged:\n%s", rep)
	}
}

// TestRunnerCatchesSilentBlackhole: a silent data-plane failure installed
// outside the script leaves the control plane (and so the baseline
// fingerprint) untouched — only the reachability probe can see it.
func TestRunnerCatchesSilentBlackhole(t *testing.T) {
	tgt, n := fig2Target(t)
	tgt.Clk.After(30*time.Second, func() {
		tgt.Plane.AddFailure(dataplane.BlackholeASTowards(nettest.B, topo.Block(nettest.O)))
	})
	s := &Script{Steps: []Step{{At: time.Minute, Check: true}}}
	r, err := NewRunner(tgt, s, Options{
		Reach: []ReachProbe{
			{From: n.Hub(nettest.E), To: tgt.Top.Router(n.Hub(nettest.O)).Addr},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var reach, baseline bool
	for _, v := range rep.Violations {
		reach = reach || v.Invariant == InvReachability
		baseline = baseline || v.Invariant == InvBaseline
	}
	if !reach {
		t.Fatalf("silent blackhole not caught by reachability probe:\n%s", rep)
	}
	if baseline {
		t.Fatal("silent data-plane failure tripped the control-plane baseline")
	}
}

// TestRunnerDeterministic: the same generated script on two independently
// built but identical targets yields byte-identical reports and journals.
func TestRunnerDeterministic(t *testing.T) {
	run := func() (string, string) {
		tgt, n := fig2Target(t)
		s, err := GenerateScript(tgt.Top, GenConfig{Seed: 11, N: 4, Intensity: 4})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(tgt, s, Options{
			Reach: []ReachProbe{
				{From: n.Hub(nettest.E), To: tgt.Top.Router(n.Hub(nettest.O)).Addr},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		var j strings.Builder
		for _, ev := range tgt.Journal.Events() {
			j.WriteString(ev.Kind)
			for _, f := range ev.Fields {
				j.WriteString(" " + f.Key + "=" + f.Value)
			}
			j.WriteString("\n")
		}
		return rep.String(), j.String()
	}
	r1, j1 := run()
	r2, j2 := run()
	if r1 != r2 {
		t.Fatalf("reports differ:\n%s\nvs\n%s", r1, r2)
	}
	if j1 != j2 {
		t.Fatalf("journals differ:\n%s\nvs\n%s", j1, j2)
	}
}

func TestValidateRejectsBadScript(t *testing.T) {
	tgt, _ := fig2Target(t)
	nan := math.NaN()
	for _, s := range []*Script{
		{Steps: []Step{{At: 0, Fault: &LinkDown{A: nettest.O, B: nettest.E}}}},    // not adjacent
		{Steps: []Step{{At: 0, Fault: &RouterCrash{AS: 99}}}},                     // unknown AS
		{Steps: []Step{{At: 0, Fault: &PacketLoss{AS: nettest.B, Prob: 1.5}}}},    // bad prob
		{Steps: []Step{{At: 0, Fault: &PacketLoss{AS: nettest.B, Prob: nan}}}},    // no prob at all
		{Steps: []Step{{At: 0, Fault: &UpdateDelay{A: nettest.B, B: nettest.A}}}}, // zero delay
		{Steps: []Step{{At: 0}}}, // neither fault nor check
	} {
		if _, err := NewRunner(tgt, s, Options{}); err == nil {
			t.Errorf("NewRunner accepted invalid script %+v", s.Steps)
		}
	}
}
