package lifeguard_test

import (
	"net/netip"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/core/remedy"
)

// outageThenLeave runs the rig-test world up to a declared, not yet
// repaired outage for origin O, then hands the session to leave (Stop, or
// a removal) and runs 20 minutes more with the failure still in place.
// Nothing may come of the pending repair decision: no event, no probe, no
// poison. It returns the network and the session for the caller's own
// checks.
func outageThenLeave(t *testing.T, leave func(*lifeguard.Rig, *lifeguard.Session)) (*lifeguard.Network, *lifeguard.Session) {
	t.Helper()
	n := fig2RigNetwork(t)
	rig := lifeguard.NewRig(n)
	s, err := rig.AddSession(lifeguard.SessionConfig{Config: lifeguard.Config{
		Origin:  asO,
		VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
		Targets: []netip.Addr{n.RouterAddr(n.Hub(asE))},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rig.Start()
	n.Clk.RunFor(time.Minute)
	n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
	n.Clk.RunFor(3 * time.Minute)
	if len(s.Outages()) == 0 || logged(s, lifeguard.EventRepair) != 0 {
		t.Fatalf("want a declared, undecided outage before leaving; history %+v", s.History)
	}

	leave(rig, s)
	logged, sent := len(s.History), n.Prober.Sent
	n.Clk.RunFor(20 * time.Minute)
	if len(s.History) != logged {
		t.Fatalf("session logged after leaving: %+v", s.History[logged:])
	}
	if n.Prober.Sent != sent {
		t.Fatalf("%d probes sent after the session left", n.Prober.Sent-sent)
	}
	if s.Remedy.Active() != nil {
		t.Fatalf("session poisoned after leaving: %+v", s.Remedy.Active())
	}
	return n, s
}

// TestStoppedSessionDefersRepairUntilStarted: a repair decision falling due
// while the session is stopped does nothing, and a Start with the failure
// still in place lets it go ahead.
func TestStoppedSessionDefersRepairUntilStarted(t *testing.T) {
	n, s := outageThenLeave(t, func(_ *lifeguard.Rig, s *lifeguard.Session) { s.Stop() })
	if r, ok := n.Eng.BestRoute(asE, lifeguard.ProductionPrefix(asO)); !ok || r.Path[0] != asA {
		t.Fatalf("stopped session's announcement changed: E routes %+v", r)
	}

	s.Start()
	n.Clk.RunFor(2 * time.Minute)
	o := s.Outages()[0]
	if logged(s, lifeguard.EventRepair) != 1 || o.Action != remedy.Poisoned {
		t.Fatalf("restarted session's outage = %+v, want one poison", o)
	}
}

// TestRemovedSessionStaysGone: a removed tenant's pending repair decision
// drops, so its withdrawn production prefix is never re-announced and
// nothing of the session is left on the clock.
func TestRemovedSessionStaysGone(t *testing.T) {
	n, _ := outageThenLeave(t, func(rig *lifeguard.Rig, _ *lifeguard.Session) {
		if !rig.RemoveSession(asO) {
			t.Fatal("RemoveSession(asO) found no session")
		}
	})
	if r, ok := n.Eng.BestRoute(asB, lifeguard.ProductionPrefix(asO)); ok {
		t.Fatalf("removed tenant's production prefix routed again: B routes %+v", r)
	}
	if pending := n.Clk.Len(); pending != 0 {
		t.Fatalf("%d events still scheduled on a rig whose one session was removed", pending)
	}
}

// TestRemovedSessionIgnoresLifecycle: every lifecycle call on a removed
// session is a no-op. Nothing is logged, probed or announced, the withdrawn
// production prefix stays withdrawn, and nothing is left on the clock.
func TestRemovedSessionIgnoresLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name    string
		crashed bool // crash the control plane before the removal
		call    func(*lifeguard.Session)
	}{
		{"Start", false, (*lifeguard.Session).Start},
		{"Stop", false, (*lifeguard.Session).Stop},
		{"CrashControl", false, (*lifeguard.Session).CrashControl},
		{"RestoreControl", true, (*lifeguard.Session).RestoreControl},
		{"Restart", false, (*lifeguard.Session).Restart},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, s := outageThenLeave(t, func(rig *lifeguard.Rig, s *lifeguard.Session) {
				if tc.crashed {
					s.CrashControl()
				}
				rig.RemoveSession(asO)
			})
			logged, sent, updates := len(s.History), n.Prober.Sent, n.Eng.UpdatesSentBy(asO)
			tc.call(s)
			n.Clk.RunFor(10 * time.Minute)
			if len(s.History) != logged {
				t.Fatalf("removed session logged: %+v", s.History[logged:])
			}
			if n.Prober.Sent != sent {
				t.Fatalf("removed session sent %d probes", n.Prober.Sent-sent)
			}
			if got := n.Eng.UpdatesSentBy(asO); got != updates {
				t.Fatalf("removed tenant's AS sent %d updates", got-updates)
			}
			if r, ok := n.Eng.BestRoute(asB, lifeguard.ProductionPrefix(asO)); ok {
				t.Fatalf("removed tenant's production prefix routed again: B routes %+v", r)
			}
			if pending := n.Clk.Len(); pending != 0 {
				t.Fatalf("%d events scheduled after a removed session's %s", pending, tc.name)
			}
		})
	}
}
