package lifeguard_test

import (
	"net/netip"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/core/remedy"
	"lifeguard/internal/obs"
)

// skipped reads s's lifeguard_repair_skipped_total series for reason.
func skipped(s *lifeguard.Session, reason string) int64 {
	return s.Obs.Counter("lifeguard_repair_skipped_total", obs.L("reason", reason)).Value()
}

// fig2Session starts a NewSystem session on the Fig. 2 rig world: origin
// O, vantage points in O and C, target E.
func fig2Session(t *testing.T, cfg lifeguard.Config) (*lifeguard.Network, *lifeguard.Session) {
	t.Helper()
	n := fig2RigNetwork(t)
	cfg.Origin = asO
	cfg.VPs = []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)}
	cfg.Targets = []netip.Addr{n.RouterAddr(n.Hub(asE))}
	s := lifeguard.NewSystem(n, cfg)
	s.Start()
	return n, s
}

// TestOutageRecordInvariants holds every outage record to the history it
// logged (checkRecords), over two hard outages of one pair back to back and
// then an hour of a lossy failure that opens and closes outages of both
// kinds (healed during isolation, healed while waiting) around poisons.
func TestOutageRecordInvariants(t *testing.T) {
	n, sys := fig2Session(t, lifeguard.Config{})
	for i := 0; i < 2; i++ {
		n.Clk.RunFor(2 * time.Minute)
		id := n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
		n.Clk.RunFor(15 * time.Minute)
		n.HealFailure(id)
		n.Clk.RunFor(10 * time.Minute)
	}
	lossy := lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO))
	lossy.DropProb, lossy.ProbSeed = 0.9, 1
	id := n.InjectFailure(lossy)
	n.Clk.RunFor(time.Hour)
	n.HealFailure(id)
	n.Clk.RunFor(10 * time.Minute)

	checkRecords(t, sys)
	reasons := map[lifeguard.Reason]int{}
	for _, r := range sys.Outages() {
		reasons[r.Reason]++
	}
	for _, why := range []lifeguard.Reason{lifeguard.ReasonPoisoned, lifeguard.ReasonHealedInIsolation, lifeguard.ReasonHealedWhileWaiting} {
		if reasons[why] < 2 {
			t.Fatalf("records by reason %v, want at least two %v", reasons, why)
		}
	}
}

// checkRecords holds every outage record of sys to the history it logged.
// Each record's outage starts no later than its detection; its isolation,
// verdicts and recovery are logged for its own pair while it is open; every
// verdict comes at or after Start + MinOutageAge, and the last is its Action
// at Decided; the recovery lands at its End, and PoisonUp says whether the
// logged poison then up was for its target.
func checkRecords(t *testing.T, sys *lifeguard.Session) {
	t.Helper()
	minAge := sys.Remedy.Config().MinOutageAge
	records := sys.Outages()
	type pair struct {
		vp     lifeguard.RouterID
		target netip.Addr
	}
	open := map[pair]*lifeguard.OutageRecord{}
	declared := 0
	last := map[*lifeguard.OutageRecord]lifeguard.Event{}
	var poisoned netip.Addr // the target of the poison up, if any
	for _, e := range sys.History {
		key := pair{e.VP, e.Target}
		switch e.Kind {
		case lifeguard.EventOutage:
			if declared == len(records) {
				t.Fatalf("outage declared at %v has no record", e.At)
			}
			r := records[declared]
			declared++
			if open[key] != nil {
				t.Fatalf("outage declared at %v while the pair's previous one is open", e.At)
			}
			if r.VP != e.VP || r.Target != e.Target || r.Detected != e.At || r.Start > r.Detected {
				t.Fatalf("record %+v (detected %v) for the outage declared at %v for %v", r.Outage, r.Detected, e.At, key)
			}
			open[key] = r
		case lifeguard.EventIsolated, lifeguard.EventRepair, lifeguard.EventRecovered:
			r := open[key]
			if r == nil {
				t.Fatalf("%v at %v for %v, whose pair has no open outage", e.Kind, e.At, key)
			}
			switch e.Kind {
			case lifeguard.EventIsolated:
				if e.Report != r.Report || e.At != r.Detected {
					t.Fatalf("isolation at %v is not its record's", e.At)
				}
			case lifeguard.EventRepair:
				if e.At < r.Start+minAge {
					t.Fatalf("verdict %v at %v for an outage started at %v, younger than %v", e.Action, e.At, r.Start, minAge)
				}
				last[r] = e
				if e.Action == remedy.Poisoned {
					poisoned = e.Target
				}
			case lifeguard.EventRecovered:
				if e.At != r.End {
					t.Fatalf("recovered at %v, outage ended at %v", e.At, r.End)
				}
				if r.PoisonUp != (poisoned == e.Target) {
					t.Fatalf("outage of %v ended at %v with poison up %v; the poison up was for %v", e.Target, e.At, r.PoisonUp, poisoned)
				}
				delete(open, key)
			}
		case lifeguard.EventUnpoison:
			poisoned = netip.Addr{}
		}
	}
	if declared != len(records) {
		t.Fatalf("%d outages declared, %d records", declared, len(records))
	}
	for _, r := range records {
		e, decided := last[r]
		if decided != (r.Decided != 0) || decided && (e.At != r.Decided || e.Action != r.Action) {
			t.Fatalf("record decided %v at %v; its last logged verdict is %+v", r.Action, r.Decided, e)
		}
		if (r.Repair != nil) != (r.Reason == lifeguard.ReasonPoisoned) {
			t.Fatalf("record with reason %v holds repair %+v", r.Reason, r.Repair)
		}
	}
}

// TestDecisionIgnoresAnEndedOutage: an outage that heals before its armed
// decision fires is not acted on, even when a new outage has opened on the
// same pair in the meantime. The new outage is decided on its own age.
func TestDecisionIgnoresAnEndedOutage(t *testing.T) {
	n, sys := fig2Session(t, lifeguard.Config{})
	n.Clk.RunFor(4 * time.Minute)
	id := n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
	n.Clk.RunFor(2 * time.Minute)
	n.HealFailure(id)
	n.Clk.RunFor(30 * time.Second)
	n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
	n.Clk.RunFor(15 * time.Minute)

	minAge := sys.Remedy.Config().MinOutageAge
	records := sys.Outages()
	if len(records) != 2 || records[0].End == 0 || records[1].Detected < records[0].End {
		t.Fatalf("want an outage that ended, then a second on the same pair; history %+v", sys.History)
	}
	first, second := records[0], records[1]
	if first.Reason != lifeguard.ReasonHealedWhileWaiting || first.Decided != 0 {
		t.Fatalf("ended outage: reason %v, decided %v at %v", first.Reason, first.Action, first.Decided)
	}
	if second.Reason != lifeguard.ReasonPoisoned || second.Decided < second.Start+minAge {
		t.Fatalf("second outage (start %v): %v at %v, want a poison at or after %v",
			second.Start, second.Reason, second.Decided, second.Start+minAge)
	}
	if got := skipped(sys, "healed-while-waiting"); got != 1 {
		t.Fatalf("healed-while-waiting counted %d times, want 1", got)
	}
}

// TestRemedyVerdictsMatchLoggedRepairs: over many outages with every remedy
// verdict, each logged repair verdict is counted once — a poison in
// lifeguard_remedy_poisons_total, anything else in
// lifeguard_repair_skipped_total — however many rounds an outage waited.
func TestRemedyVerdictsMatchLoggedRepairs(t *testing.T) {
	n := twoDiamonds(t)
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:  asO,
		VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(dC1)},
		Targets: []netip.Addr{n.RouterAddr(n.Hub(dE1)), n.RouterAddr(n.Hub(dE2))},
	})
	sys.Start()
	n.Clk.RunFor(3 * time.Minute)
	blackhole := func(as lifeguard.ASN) lifeguard.FailureID {
		return n.InjectFailure(lifeguard.BlackholeASTowards(as, lifeguard.Block(asO)))
	}
	for _, blame := range [][]lifeguard.ASN{{dA1, dA2}, {asB}, {dE1}} {
		var ids []lifeguard.FailureID
		for _, as := range blame {
			ids = append(ids, blackhole(as))
		}
		n.Clk.RunFor(25 * time.Minute)
		for _, id := range ids {
			n.HealFailure(id)
		}
		n.Clk.RunFor(15 * time.Minute)
	}
	// The second target's outage ends while the first target's poison is up.
	first, second := blackhole(dA1), blackhole(dA2)
	n.Clk.RunFor(15 * time.Minute)
	n.HealFailure(second)
	n.Clk.RunFor(10 * time.Minute)
	n.HealFailure(first)
	n.Clk.RunFor(15 * time.Minute)

	verdicts := map[remedy.Action]int{}
	for _, e := range sys.History {
		if e.Kind == lifeguard.EventRepair {
			verdicts[e.Action]++
		}
	}
	for _, a := range []remedy.Action{remedy.Poisoned, remedy.AlreadyActive, remedy.NoAlternate, remedy.NotPoisonable} {
		if verdicts[a] == 0 {
			t.Fatalf("logged verdicts %v, want at least one %v", verdicts, a)
		}
	}
	counted := n.Obs.Counter("lifeguard_remedy_poisons_total", obs.L("kind", "full")).Value()
	for _, reason := range []string{"no-failure", "not-poisonable", "no-alternate", "already-active"} {
		counted += skipped(sys, reason)
	}
	checkRecords(t, sys)
	if logged := logged(sys, lifeguard.EventRepair); counted != int64(logged) {
		t.Fatalf("%d verdicts counted, %d logged (%v)", counted, logged, verdicts)
	}
}

// TestEverySkipReasonIsCounted drives a session into each branch that
// leaves an outage unpoisoned, or has it wait, and reads the reason's
// series: one count per outage that reached the branch, however many times
// its decision was asked again.
func TestEverySkipReasonIsCounted(t *testing.T) {
	blackhole := func(as lifeguard.ASN) lifeguard.FailureRule {
		return lifeguard.BlackholeASTowards(as, lifeguard.Block(asO))
	}
	// failFor runs a Fig. 2 session with rule in place from two minutes in.
	failFor := func(t *testing.T, cfg lifeguard.Config, rule lifeguard.FailureRule, d time.Duration) *lifeguard.Session {
		n, s := fig2Session(t, cfg)
		n.Clk.RunFor(2 * time.Minute)
		n.InjectFailure(rule)
		n.Clk.RunFor(d)
		return s
	}
	for _, tc := range []struct {
		label string
		why   lifeguard.Reason
		want  int64
		run   func(t *testing.T) *lifeguard.Session
	}{
		{"auto-repair-off", lifeguard.ReasonAutoRepairOff, 1, func(t *testing.T) *lifeguard.Session {
			return failFor(t, lifeguard.Config{DisableAutoRepair: true}, blackhole(asA), 15*time.Minute)
		}},
		{"healed-during-isolation", lifeguard.ReasonHealedInIsolation, 3, func(t *testing.T) *lifeguard.Session {
			lossy := blackhole(asA)
			lossy.DropProb, lossy.ProbSeed = 0.7, 1
			return failFor(t, lifeguard.Config{}, lossy, 3*time.Hour)
		}},
		{"removed", lifeguard.ReasonRemoved, 1, func(t *testing.T) *lifeguard.Session {
			n := fig2RigNetwork(t)
			rig, s := soloRig(t, n, lifeguard.SessionConfig{Config: lifeguard.Config{
				Origin:  asO,
				VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
				Targets: []netip.Addr{n.RouterAddr(n.Hub(asE))},
			}})
			s.Start()
			n.Clk.RunFor(2 * time.Minute)
			n.InjectFailure(blackhole(asA))
			n.Clk.RunFor(3 * time.Minute)
			rig.RemoveSession(asO)
			n.Clk.RunFor(10 * time.Minute)
			return s
		}},
		{"healed-while-waiting", lifeguard.ReasonHealedWhileWaiting, 1, func(t *testing.T) *lifeguard.Session {
			n, s := fig2Session(t, lifeguard.Config{})
			n.Clk.RunFor(2 * time.Minute)
			id := n.InjectFailure(blackhole(asA))
			n.Clk.RunFor(3 * time.Minute)
			n.HealFailure(id)
			n.Clk.RunFor(10 * time.Minute)
			return s
		}},
		{"deferred", lifeguard.ReasonDeferred, 1, func(t *testing.T) *lifeguard.Session {
			n, s := fig2Session(t, lifeguard.Config{})
			n.Clk.RunFor(2 * time.Minute)
			n.InjectFailure(blackhole(asA))
			n.Clk.RunFor(3 * time.Minute)
			s.Stop()
			n.Clk.RunFor(10 * time.Minute)
			s.Start()
			n.Clk.RunFor(2 * time.Minute)
			if o := s.Outages()[0]; o.Rearms < 2 || o.Reason != lifeguard.ReasonPoisoned {
				t.Fatalf("deferred outage asked %d times more, reason %v; want several, then a poison", o.Rearms, o.Reason)
			}
			return s
		}},
		{"no-failure", lifeguard.ReasonNoFailure, 1, func(t *testing.T) *lifeguard.Session {
			// Failing before the atlas ever measured a reverse path leaves
			// isolation nothing to blame.
			n := fig2RigNetwork(t)
			n.InjectFailure(blackhole(asA))
			s := lifeguard.NewSystem(n, lifeguard.Config{
				Origin:  asO,
				VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
				Targets: []netip.Addr{n.RouterAddr(n.Hub(asE))},
			})
			s.Start()
			n.Clk.RunFor(15 * time.Minute)
			return s
		}},
		{"not-poisonable", lifeguard.ReasonNotPoisonable, 1, func(t *testing.T) *lifeguard.Session {
			return failFor(t, lifeguard.Config{}, blackhole(asE), 15*time.Minute)
		}},
		{"no-alternate", lifeguard.ReasonNoAlternate, 1, func(t *testing.T) *lifeguard.Session {
			return failFor(t, lifeguard.Config{}, blackhole(asB), 15*time.Minute)
		}},
		{"already-active", lifeguard.ReasonAlreadyActive, 1, func(t *testing.T) *lifeguard.Session {
			n := twoDiamonds(t)
			t2 := n.RouterAddr(n.Hub(dE2))
			s := lifeguard.NewSystem(n, lifeguard.Config{
				Origin:  asO,
				VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(dC1)},
				Targets: []netip.Addr{n.RouterAddr(n.Hub(dE1)), t2},
			})
			s.Start()
			n.Clk.RunFor(3 * time.Minute)
			n.InjectFailure(lifeguard.BlackholeASTowards(dA1, lifeguard.Block(asO)))
			n.InjectFailure(lifeguard.BlackholeASTowards(dA2, lifeguard.Block(asO)))
			n.Clk.RunFor(20 * time.Minute)
			for _, o := range s.Outages() {
				if o.Target == t2 && (o.Rearms < 2 || o.Reason != lifeguard.ReasonAlreadyActive) {
					t.Fatalf("outage behind the other poison asked %d times more, reason %v", o.Rearms, o.Reason)
				}
			}
			return s
		}},
	} {
		t.Run(tc.label, func(t *testing.T) {
			s := tc.run(t)
			if tc.why.String() != tc.label {
				t.Fatalf("reason %d is named %q, its series is labelled %q", tc.why, tc.why, tc.label)
			}
			if got := skipped(s, tc.label); got != tc.want {
				t.Fatalf("%v counted %d times, want %d; history %+v", tc.why, got, tc.want, s.History)
			}
			if tc.why == lifeguard.ReasonDeferred {
				return // deferred outages go on to a verdict
			}
			var held int64
			for _, o := range s.Outages() {
				if o.Reason == tc.why {
					held++
				}
			}
			if held != tc.want {
				t.Fatalf("%d records hold reason %v, want %d", held, tc.why, tc.want)
			}
		})
	}
}
