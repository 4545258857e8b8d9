package bgp

import (
	"testing"
	"time"

	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// dampNet: 1 (origin) customer of 2, 2 customer of 3. Dampening enabled.
func dampNet(t *testing.T) (*Engine, *simclock.Scheduler) {
	t.Helper()
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 3; asn++ {
		b.AddAS(asn, "")
	}
	b.Provider(1, 2)
	b.Provider(2, 3)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	e := New(top, clk, Config{Seed: 5, Dampening: true})
	return e, clk
}

func flapOnce(e *Engine, p topo.Path) {
	prefix := topo.ProductionPrefix(1)
	e.Announce(1, prefix, OriginConfig{Pattern: p})
	e.Converge(5_000_000)
}

func TestRapidFlappingTriggersSuppression(t *testing.T) {
	e, clk := dampNet(t)
	prefix := topo.ProductionPrefix(1)
	base := topo.Path{1, 1, 1}
	poison := topo.Path{1, 9, 1} // poison some non-local AS
	flapOnce(e, base)
	// Flap every two minutes: penalties accumulate far faster than the
	// 15-minute half-life can shed them.
	for i := 0; i < 4; i++ {
		clk.RunFor(2 * time.Minute)
		if i%2 == 0 {
			flapOnce(e, poison)
		} else {
			flapOnce(e, base)
		}
	}
	if !e.Speaker(2).Suppressed(1, prefix) {
		t.Fatalf("AS2 should have suppressed the flapping prefix (penalty %.0f)",
			e.Speaker(2).Penalty(1, prefix))
	}
	// Suppression removes the route upstream too.
	if _, ok := e.BestRoute(3, prefix); ok {
		t.Fatal("AS3 should lose the route while AS2 suppresses it")
	}
}

func TestSuppressedRouteReusedAfterDecay(t *testing.T) {
	e, clk := dampNet(t)
	prefix := topo.ProductionPrefix(1)
	flapOnce(e, topo.Path{1, 1, 1})
	for i := 0; i < 4; i++ {
		clk.RunFor(time.Minute)
		flapOnce(e, topo.Path{1, topo.ASN(8 + i%2), 1})
	}
	if !e.Speaker(2).Suppressed(1, prefix) {
		t.Fatal("setup: not suppressed")
	}
	// Stop flapping; within a few half-lives the penalty decays below
	// the reuse threshold and the route returns everywhere.
	clk.RunFor(90 * time.Minute)
	e.Converge(5_000_000)
	if e.Speaker(2).Suppressed(1, prefix) {
		t.Fatalf("still suppressed after decay (penalty %.0f)", e.Speaker(2).Penalty(1, prefix))
	}
	if _, ok := e.BestRoute(3, prefix); !ok {
		t.Fatal("route did not return after reuse")
	}
}

// TestLifeguardPacingAvoidsDampening verifies the §5 operational rule: one
// poison/unpoison cycle per 90 minutes never accumulates enough penalty to
// be suppressed.
func TestLifeguardPacingAvoidsDampening(t *testing.T) {
	e, clk := dampNet(t)
	prefix := topo.ProductionPrefix(1)
	flapOnce(e, topo.Path{1, 1, 1})
	for cycle := 0; cycle < 4; cycle++ {
		clk.RunFor(90 * time.Minute)
		flapOnce(e, topo.Path{1, 9, 1}) // poison
		clk.RunFor(90 * time.Minute)
		flapOnce(e, topo.Path{1, 1, 1}) // unpoison
		if e.Speaker(2).Suppressed(1, prefix) {
			t.Fatalf("cycle %d: paced announcements got suppressed", cycle)
		}
	}
	if _, ok := e.BestRoute(3, prefix); !ok {
		t.Fatal("route lost despite pacing")
	}
}

func TestDampeningDisabledByDefault(t *testing.T) {
	b := topo.NewBuilder()
	b.AddAS(1, "")
	b.AddAS(2, "")
	b.Provider(1, 2)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	e := New(top, clk, Config{Seed: 1})
	prefix := topo.ProductionPrefix(1)
	for i := 0; i < 10; i++ {
		e.Announce(1, prefix, OriginConfig{Pattern: topo.Path{1, topo.ASN(5 + i%3), 1}})
		e.Converge(5_000_000)
		clk.RunFor(time.Minute)
	}
	if e.Speaker(2).Suppressed(1, prefix) {
		t.Fatal("dampening should be off by default")
	}
	if _, ok := e.BestRoute(2, prefix); !ok {
		t.Fatal("route missing")
	}
}

// TestDuplicateReadvertisementNotPenalized is the regression test for the
// RFC 2439 §4.4.3 rule that only updates which *change* an existing route
// count as flaps. The pre-fix Speaker.receive noted a flap before the
// routesEqual dedup check, so a neighbor re-sending its current route (a
// common BGP occurrence after e.g. a session refresh) accrued penalty and
// could be suppressed without ever flapping. Updates are injected with
// receive directly because the sender-side flush dedup would otherwise
// filter the duplicates before they reach the receiver.
func TestDuplicateReadvertisementNotPenalized(t *testing.T) {
	e, _ := dampNet(t)
	prefix := topo.ProductionPrefix(1)
	s := e.Speaker(2)
	adv := func(p topo.Path) { s.receive(s.nbrIndex(1), update{id: s.e.intern(prefix), path: p}) }

	adv(topo.Path{1}) // first announcement ever: not a flap
	if got := s.Penalty(1, prefix); got != 0 {
		t.Fatalf("first announcement penalized: %v", got)
	}
	adv(topo.Path{1}) // identical re-advertisement: nothing changed
	if got := s.Penalty(1, prefix); got != 0 {
		t.Fatalf("duplicate re-advertisement penalized: %v", got)
	}
	adv(topo.Path{1, 9, 1}) // genuine path change: one flap
	p1 := s.Penalty(1, prefix)
	if p1 <= 0 {
		t.Fatal("genuine path change not penalized")
	}
	adv(topo.Path{1, 9, 1}) // duplicate of the changed route: no extra flap
	if got := s.Penalty(1, prefix); got != p1 {
		t.Fatalf("duplicate after change penalized: %v, want %v", got, p1)
	}
	s.receive(s.nbrIndex(1), update{id: s.e.intern(prefix)}) // withdrawing a known route: one flap
	p2 := s.Penalty(1, prefix)
	if p2 <= p1 {
		t.Fatalf("withdrawal not penalized: %v, want > %v", p2, p1)
	}
	s.receive(s.nbrIndex(1), update{id: s.e.intern(prefix)}) // withdrawing nothing: not a flap
	if got := s.Penalty(1, prefix); got != p2 {
		t.Fatalf("redundant withdrawal penalized: %v, want %v", got, p2)
	}
}

func TestPenaltyDecay(t *testing.T) {
	st := dampState{penalty: 2000, updatedAt: 0}
	if got := st.decayedPenalty(halfLife); got < 990 || got > 1010 {
		t.Fatalf("one half-life: %v", got)
	}
	if got := st.decayedPenalty(2 * halfLife); got < 495 || got > 505 {
		t.Fatalf("two half-lives: %v", got)
	}
	if got := st.decayedPenalty(0); got != 2000 {
		t.Fatalf("no time: %v", got)
	}
}
