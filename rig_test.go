package lifeguard_test

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/core/remedy"
	"lifeguard/internal/obs"
	"lifeguard/internal/splice"
)

// fastBGP keeps control-plane convergence transients far below the 30s
// monitoring grid (small MRAI) and free of rng draws (negative jitters
// disable the jitter path entirely), which is what makes session outcomes
// composable: every history-relevant instant lands on the monitor/sentinel
// grid regardless of what the other tenants' announcements are doing.
func fastBGP() lifeguard.BGPConfig {
	return lifeguard.BGPConfig{
		MRAI:       200 * time.Millisecond,
		MRAIJitter: -1,
		PropJitter: -1,
	}
}

// fig2RigNetwork is fig2Network with fast BGP, metrics, and a journal —
// the rig tests assert on all three.
func fig2RigNetwork(t *testing.T) *lifeguard.Network {
	t.Helper()
	b := lifeguard.NewTopologyBuilder()
	for _, asn := range []lifeguard.ASN{asO, asB, asA, asC, asD, asE, asF} {
		b.AddAS(asn, "")
		b.AddRouter(asn, "")
	}
	for _, r := range [][2]lifeguard.ASN{{asO, asB}, {asB, asA}, {asB, asC}, {asC, asD}, {asA, asE}, {asD, asE}, {asF, asA}} {
		b.Provider(r[0], r[1])
		b.ConnectAS(r[0], r[1])
	}
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := lifeguard.AssembleNetwork(top, lifeguard.NetworkOptions{
		Seed: 11, BGP: fastBGP(),
		Obs:     obs.New(),
		Journal: obs.NewJournal(1 << 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// renderHistory flattens a session's event history to comparable bytes.
func renderHistory(s *lifeguard.Session) string {
	var b strings.Builder
	for _, e := range s.History {
		fmt.Fprintf(&b, "%v %v vp=%v target=%v", e.At, e.Kind, e.VP, e.Target)
		if e.Report != nil {
			fmt.Fprintf(&b, " blamed=%d dir=%v", e.Report.Blamed, e.Report.Direction)
		}
		if e.Kind == lifeguard.EventRepair {
			fmt.Fprintf(&b, " action=%v avoided=%d", e.Action, e.Avoided)
		}
		if e.Kind == lifeguard.EventUnpoison {
			fmt.Fprintf(&b, " avoided=%d", e.Avoided)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// snapshotBytes freezes a session's obs partition to comparable bytes.
func snapshotBytes(t *testing.T, s *lifeguard.Session) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Obs.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// tenantScenario is one origin babysitting one target with one avoidable
// transit to blame.
type tenantScenario struct {
	origin, target, blame lifeguard.ASN
}

// findTenantScenarios picks count disjoint (origin, target, blame) triples
// on the generated internet such that each origin can poison around its
// blamed transit. Origins and targets are pairwise disjoint across tenants
// (and distinct from the shared helper VP), so the tenants' production
// traffic, faults, and repairs cannot interact.
func findTenantScenarios(t *testing.T, n *lifeguard.Network, helper lifeguard.ASN, count int) []tenantScenario {
	t.Helper()
	used := map[lifeguard.ASN]bool{helper: true}
	var out []tenantScenario
	for _, o := range n.Gen.Stubs {
		if len(out) == count {
			break
		}
		if used[o] {
			continue
		}
	search:
		for _, cand := range n.Gen.Stubs {
			if cand == o || used[cand] {
				continue
			}
			path := n.Eng.ASPathTo(cand, lifeguard.ProductionAddr(o))
			for _, hop := range path {
				if hop == o || hop == cand {
					continue
				}
				if splice.CanReach(n.Top, cand, o, splice.Avoid1(hop)) {
					out = append(out, tenantScenario{origin: o, target: cand, blame: hop})
					used[o], used[cand] = true, true
					break search
				}
			}
		}
	}
	if len(out) < count {
		t.Skipf("found only %d/%d tenant scenarios for this seed", len(out), count)
	}
	return out
}

// TestRigMultiTenantMatchesSoloSessions is the determinism contract of the
// Rig/Session split: a rig hosting N tenants produces, for each tenant, a
// byte-identical event history and obs partition snapshot to a dedicated
// single-session run with the same seed — the same faults on the same
// timeline, just without the other tenants. Sessions sharing a rig must
// not perturb each other.
func TestRigMultiTenantMatchesSoloSessions(t *testing.T) {
	const seed = 42
	build := func() *lifeguard.Network {
		n, err := lifeguard.GenerateInternet(
			lifeguard.InternetConfig{Seed: seed, NumTransit: 12, NumStub: 30},
			lifeguard.NetworkOptions{Seed: seed, BGP: fastBGP(), Obs: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	probe := build()
	helper := probe.Gen.Stubs[len(probe.Gen.Stubs)-1]
	scenarios := findTenantScenarios(t, probe, helper, 3)

	type result struct{ history, snapshot string }
	// run replays the same world — same faults, same timeline — hosting
	// only the sessions in include; results are keyed by scenario index.
	run := func(include ...int) map[int]result {
		n := build()
		rig := lifeguard.NewRig(n)
		sessions := make(map[int]*lifeguard.Session)
		for _, i := range include {
			sc := scenarios[i]
			s, err := rig.AddSession(lifeguard.SessionConfig{Config: lifeguard.Config{
				Origin:  sc.origin,
				VPs:     []lifeguard.RouterID{n.Hub(sc.origin), n.Hub(helper)},
				Targets: []netip.Addr{n.RouterAddr(n.Hub(sc.target))},
			}})
			if err != nil {
				t.Fatal(err)
			}
			sessions[i] = s
		}
		rig.Start()
		n.Clk.RunFor(3 * time.Minute)
		// Every run carries the full fault schedule, sessions or not:
		// faults are scoped to their tenant's address block, so foreign
		// faults are invisible to a session — which is exactly what this
		// test proves.
		ids := make([]lifeguard.FailureID, len(scenarios))
		for i, sc := range scenarios {
			ids[i] = n.InjectFailure(lifeguard.BlackholeASTowards(sc.blame, lifeguard.Block(sc.origin)))
		}
		n.Clk.RunFor(12 * time.Minute)
		for _, id := range ids {
			n.HealFailure(id)
		}
		n.Clk.RunFor(6 * time.Minute)
		out := make(map[int]result)
		for i, s := range sessions {
			out[i] = result{history: renderHistory(s), snapshot: snapshotBytes(t, s)}
		}
		return out
	}

	shared := run(0, 1, 2)
	for i := range scenarios {
		// The shared run must be non-trivial for every tenant: detected,
		// poisoned, recovered, and unpoisoned after the heal.
		h := shared[i].history
		for _, want := range []string{"outage", "repair", "action=poisoned", "recovered", "unpoison"} {
			if !strings.Contains(h, want) {
				t.Fatalf("tenant %d (origin %d) shared-run history has no %q:\n%s",
					i, scenarios[i].origin, want, h)
			}
		}
		solo := run(i)
		if solo[i].history != h {
			t.Errorf("tenant %d history diverges between shared rig and solo run:\nshared:\n%s\nsolo:\n%s",
				i, h, solo[i].history)
		}
		if solo[i].snapshot != shared[i].snapshot {
			t.Errorf("tenant %d obs snapshot diverges between shared rig and solo run:\nshared:\n%s\nsolo:\n%s",
				i, shared[i].snapshot, solo[i].snapshot)
		}
	}
}

// TestGracefulRestartForwardsThroughControlCrash is the graceful-restart
// e2e contract: a chaos crashcontrol fault takes a tenant's control plane
// down mid-outage, and with graceful restart (the default) the data plane
// keeps forwarding the tenant's traffic through the whole restart window —
// zero no-route drops, every externally-driven probe answered — after
// which the session resumes the monitor → isolate → repair pipeline. The
// non-graceful variant is the contrast that proves the mechanism: the same
// timeline with stale-route retention off loses routes and drops packets.
func TestGracefulRestartForwardsThroughControlCrash(t *testing.T) {
	for _, graceful := range []bool{true, false} {
		name := "graceful"
		if !graceful {
			name = "non-graceful"
		}
		t.Run(name, func(t *testing.T) {
			n := fig2RigNetwork(t)
			rig := lifeguard.NewRig(n)
			target := n.RouterAddr(n.Hub(asE))
			s, err := rig.AddSession(lifeguard.SessionConfig{
				Config: lifeguard.Config{
					Origin:  asO,
					VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
					Targets: []netip.Addr{target},
				},
				NoGracefulRestart: !graceful,
			})
			if err != nil {
				t.Fatal(err)
			}
			rig.Start()
			n.Clk.RunFor(3 * time.Minute)

			// The persistent silent failure the session is mid-way through
			// handling when its control plane crashes.
			n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))

			// The crash window is [base+2m15s, base+3m45s]: the outage is
			// declared at the 4th failed round (~base+2m), so the control
			// plane dies mid-outage and returns before the 5-minute
			// poison maturity.
			base := n.Clk.Now()
			crashAt := base + 2*time.Minute + 15*time.Second
			restoreAt := crashAt + 90*time.Second

			// External traffic through the window: C pings the production
			// prefix every 15s. C's path to O avoids A, so with routes
			// retained every probe must succeed despite the outage *and*
			// the crash; without retention C has no route at all.
			noRoute := n.Obs.Counter("lifeguard_dataplane_packets_dropped_total", obs.L("reason", "no-route"))
			var dropsAtCrash, dropsAtRestore int64
			n.Clk.At(crashAt, func() { dropsAtCrash = noRoute.Value() })
			n.Clk.At(restoreAt, func() { dropsAtRestore = noRoute.Value() })
			var pingOK, pingFail int
			for off := 15 * time.Second; off < 90*time.Second; off += 15 * time.Second {
				n.Clk.At(crashAt+off, func() {
					if n.Prober.Ping(n.Hub(asC), lifeguard.ProductionAddr(asO)).OK {
						pingOK++
					} else {
						pingFail++
					}
				})
			}

			script, err := lifeguard.ParseChaosScript("at 2m15s for 90s crashcontrol 10")
			if err != nil {
				t.Fatal(err)
			}
			rep, err := rig.RunChaos(script, lifeguard.ChaosOptions{})
			if err != nil {
				t.Fatal(err)
			}

			if len(s.EventsOfKind(lifeguard.EventControlCrash)) != 1 ||
				len(s.EventsOfKind(lifeguard.EventControlRestore)) != 1 {
				t.Fatal("crashcontrol did not drive the session's crash/restore lifecycle")
			}
			if s.Crashed() {
				t.Fatal("session still crashed after the heal")
			}
			outages := s.EventsOfKind(lifeguard.EventOutage)
			if len(outages) == 0 || outages[0].At >= crashAt {
				t.Fatalf("outage not declared before the crash (events %v, crash at %v)", outages, crashAt)
			}

			windowDrops := dropsAtRestore - dropsAtCrash
			if graceful {
				if rep.Failed() {
					t.Fatalf("chaos invariants violated: %v", rep.Err())
				}
				if pingFail != 0 || pingOK == 0 {
					t.Fatalf("graceful restart dropped probes: %d ok, %d failed", pingOK, pingFail)
				}
				if windowDrops != 0 {
					t.Fatalf("graceful restart window saw %d no-route drops, want 0", windowDrops)
				}
			} else {
				if pingFail == 0 {
					t.Fatal("non-graceful restart lost no probes — the contrast is broken")
				}
				if windowDrops == 0 {
					t.Fatal("non-graceful restart window saw no no-route drops — the contrast is broken")
				}
			}

			// After restore the pipeline resumes: the outage matures and
			// the session poisons, then monitored traffic recovers.
			n.Clk.RunFor(8 * time.Minute)
			repairs := s.EventsOfKind(lifeguard.EventRepair)
			if len(repairs) == 0 {
				t.Fatal("no repair decision after control restore")
			}
			if repairs[0].Action != remedy.Poisoned {
				t.Fatalf("repair action = %v, want poisoned", repairs[0].Action)
			}
			if repairs[0].At <= restoreAt {
				t.Fatalf("repair at %v, before control restore at %v", repairs[0].At, restoreAt)
			}
			if len(s.EventsOfKind(lifeguard.EventRecovered)) == 0 {
				t.Fatal("monitored traffic did not recover after the restart-spanning repair")
			}
		})
	}
}

// TestFailsafeTimingBoundedAndJournaled pins the failsafe contract: when
// the monitor dies, the session enters FAILSAFE within FailsafeMaxDelay
// (three missed rounds + 5s grace, 95s), journals the entry, suspends
// repair decisions for the duration, and exits on the first completed
// round after the monitor returns — at which point the deferred repair
// goes ahead.
func TestFailsafeTimingBoundedAndJournaled(t *testing.T) {
	n := fig2RigNetwork(t)
	target := n.RouterAddr(n.Hub(asE))
	s := lifeguard.NewSession(n, lifeguard.SessionConfig{Config: lifeguard.Config{
		Origin:  asO,
		VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
		Targets: []netip.Addr{target},
	}})
	s.Start()
	n.Clk.RunFor(2 * time.Minute)
	n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
	n.Clk.RunFor(2*time.Minute + 30*time.Second)
	if len(s.EventsOfKind(lifeguard.EventOutage)) == 0 {
		t.Fatal("outage not declared before the monitor loss")
	}

	// The monitor dies out from under the session (not an administrative
	// Stop — the session doesn't know). The poison decision for the
	// ongoing outage falls due inside the dead window.
	stopAt := n.Clk.Now()
	s.Monitor.Stop()
	n.Clk.RunFor(5 * time.Minute)

	maxDelay := lifeguard.FailsafeMaxDelay
	if want := 3*s.Monitor.Interval() + 5*time.Second; maxDelay != want {
		t.Fatalf("FailsafeMaxDelay = %v, want three monitor rounds + 5s = %v", maxDelay, want)
	}
	enters := s.EventsOfKind(lifeguard.EventFailsafeEnter)
	if len(enters) != 1 {
		t.Fatalf("%d FAILSAFE entries, want 1", len(enters))
	}
	// The last round completed at most one interval before the stop, so
	// the entry lands in [stop + bound − interval, stop + bound].
	if enters[0].At < stopAt+maxDelay-s.Monitor.Interval() || enters[0].At > stopAt+maxDelay {
		t.Fatalf("FAILSAFE entered at %v; monitor died at %v, bound %v", enters[0].At, stopAt, maxDelay)
	}
	if !s.InFailsafe() {
		t.Fatal("session not in FAILSAFE while the monitor is dead")
	}
	if got := s.EventsOfKind(lifeguard.EventRepair); len(got) != 0 {
		t.Fatalf("repair decided while in FAILSAFE: %+v", got)
	}
	found := false
	for _, e := range n.Journal.Events() {
		if e.Subsystem == "session" && e.Kind == "failsafe-enter" {
			found = true
			fields := map[string]string{}
			for _, f := range e.Fields {
				fields[f.Key] = f.Value
			}
			if fields["tenant"] != "AS10" {
				t.Fatalf("failsafe-enter journaled without tenant: %+v", e.Fields)
			}
			if fields["delay"] == "" || fields["bound"] == "" {
				t.Fatalf("failsafe-enter missing delay/bound fields: %+v", e.Fields)
			}
		}
	}
	if !found {
		t.Fatal("FAILSAFE entry not journaled")
	}

	// Monitor returns: the first completed round exits FAILSAFE, and the
	// deferred repair resumes within a round.
	s.Monitor.Start()
	if s.InFailsafe() {
		t.Fatal("first completed round did not clear FAILSAFE")
	}
	if len(s.EventsOfKind(lifeguard.EventFailsafeExit)) != 1 {
		t.Fatal("missing FAILSAFE exit event")
	}
	n.Clk.RunFor(2 * time.Minute)
	repairs := s.EventsOfKind(lifeguard.EventRepair)
	if len(repairs) == 0 {
		t.Fatal("deferred repair never resumed after FAILSAFE exit")
	}
	if repairs[0].Action != remedy.Poisoned {
		t.Fatalf("resumed repair action = %v, want poisoned", repairs[0].Action)
	}
}

// TestRigHitlessReload: adding and removing tenants on a live rig must not
// disturb the other sessions' state — the daemon's config-reload contract.
func TestRigHitlessReload(t *testing.T) {
	n := fig2RigNetwork(t)
	rig := lifeguard.NewRig(n)
	target := n.RouterAddr(n.Hub(asE))
	s1, err := rig.AddSession(lifeguard.SessionConfig{Config: lifeguard.Config{
		Origin:  asO,
		VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
		Targets: []netip.Addr{target},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rig.Start()
	n.Clk.RunFor(time.Minute)

	// An ongoing outage for tenant 1...
	n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
	n.Clk.RunFor(3 * time.Minute)
	if len(s1.EventsOfKind(lifeguard.EventOutage)) == 0 {
		t.Fatal("tenant 1 outage not declared")
	}

	// ...must survive a second tenant arriving live...
	s2, err := rig.AddSession(lifeguard.SessionConfig{Config: lifeguard.Config{
		Origin:  asF,
		VPs:     []lifeguard.RouterID{n.Hub(asF)},
		Targets: []netip.Addr{n.RouterAddr(n.Hub(asC))},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	outages1 := len(s1.Monitor.History)
	// One more minute keeps us inside tenant 1's 5-minute poison
	// maturity: the outage must still be open, untouched by the reload.
	n.Clk.RunFor(time.Minute)
	if !s1.Monitor.Down(n.Hub(asO), target) {
		t.Fatal("tenant 1 outage state lost across the reload")
	}
	if len(s1.Monitor.History) != outages1 {
		t.Fatal("tenant 1 outage history perturbed by the reload")
	}
	if len(s2.EventsOfKind(lifeguard.EventOutage)) != 0 {
		t.Fatalf("tenant 2 sees phantom outages: %+v", s2.History)
	}

	// ...and tenant 2 leaving again, with its prefixes withdrawn.
	if !rig.RemoveSession(asF) {
		t.Fatal("RemoveSession(asF) found no session")
	}
	if rig.Session(asF) != nil || len(rig.Sessions()) != 1 {
		t.Fatal("rig still lists the removed session")
	}
	n.Converge()
	if _, ok := n.Eng.BestRoute(asB, lifeguard.ProductionPrefix(asF)); ok {
		t.Fatal("removed tenant's production prefix still routed")
	}
	// Tenant 1 keeps running: its repair pipeline completes as usual.
	n.Clk.RunFor(10 * time.Minute)
	repairs := s1.EventsOfKind(lifeguard.EventRepair)
	if len(repairs) == 0 || repairs[0].Action != remedy.Poisoned {
		t.Fatalf("tenant 1 pipeline broken after reload: %+v", repairs)
	}
}
