package bgp

import (
	"testing"
	"time"

	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// veeTopo: X(2) is the provider of both N(1) and M(3), so X re-exports a
// route learned from either one to the other.
func veeTopo(t *testing.T) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	for asn := topo.ASN(1); asn <= 3; asn++ {
		b.AddAS(asn, "")
	}
	b.Provider(1, 2)
	b.Provider(3, 2)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// stepUntil steps the clock until cond holds and returns that instant.
func stepUntil(t *testing.T, clk *simclock.Scheduler, cond func() bool) time.Duration {
	t.Helper()
	for !cond() {
		if !clk.Step() {
			t.Fatal("the scheduler ran dry before the condition held")
		}
	}
	return clk.Now()
}

// advertised reports whether s holds an advertisement of id toward its
// neighbor n.
func advertised(s *Speaker, n topo.ASN, id prefixID) bool {
	return s.advertised(s.nbrIndex(n), id).pid != 0
}

// TestNewsRidesRememberedTick: X learns a route from N and has nothing to
// send back to N (split horizon), so the X→N session only remembers its tick.
// When X then switches to M's shorter route it does have news for N. Inside
// the window that update leaves at exactly the remembered instant and the
// kick counts as deferred, as it was when the tick was an armed timer; after
// the window the tick means nothing and the kick draws afresh.
func TestNewsRidesRememberedTick(t *testing.T) {
	const N, X, M = topo.ASN(1), topo.ASN(2), topo.ASN(3)
	p := topo.ProductionPrefix(N)
	for _, tc := range []struct {
		name   string
		inside bool
	}{
		{"inside the window", true},
		{"after the window", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.New()
			e := New(veeTopo(t), clk, Config{Seed: 42, Obs: obs.New()})
			x := e.Speaker(X)
			toN, toM := &x.out[x.nbrIndex(N)], &x.out[x.nbrIndex(M)]
			clk.RunUntil(10 * time.Second) // an instant other than zero

			x.receive(x.nbrIndex(N), update{id: x.e.intern(p), path: topo.Path{N, N, N}})
			id, _ := e.prefixes.lookup(p)
			start, quiet := clk.Now(), toN.quietUntil
			if toN.timerArmed || toN.pending.n != 0 {
				t.Fatalf("X→N has nothing to send but armed=%v pending=%v", toN.timerArmed, toN.pending.n)
			}
			if quiet <= start || quiet >= start+e.cfg.MRAI {
				t.Fatalf("X→N remembered tick %v: want a phase inside (%v, %v)", quiet, start, start+e.cfg.MRAI)
			}
			if !toM.timerArmed || e.obs.idleTicks.Value() != 1 || e.obs.mraiDeferrals.Value() != 0 {
				t.Fatalf("first route: X→M armed=%v, %d idle ticks, %d deferrals; want true, 1, 0",
					toM.timerArmed, e.obs.idleTicks.Value(), e.obs.mraiDeferrals.Value())
			}

			if !tc.inside {
				clk.RunUntil(quiet + 1)
				if toN.timerArmed || advertised(x, N, id) {
					t.Fatal("the remembered tick did something on its own")
				}
			}
			now := clk.Now()
			idle, deferred := e.obs.idleTicks.Value(), e.obs.mraiDeferrals.Value()
			// X→M is kicked too, and deferred if its timer is running: armed,
			// or the MRAI interval after its flush still ahead.
			wantDeferred := deferred
			if toM.timerArmed || toM.quietUntil > now {
				wantDeferred++
			}
			if tc.inside {
				wantDeferred++
			}
			x.receive(x.nbrIndex(M), update{id: x.e.intern(p), path: topo.Path{M}})
			if r, _ := x.Best(p); r == nil || r.From != M {
				t.Fatalf("X did not switch to M's route: %v", r)
			}
			if !toN.timerArmed || toN.pending.n != 1 {
				t.Fatalf("X→N has news but armed=%v pending=%v", toN.timerArmed, toN.pending.n)
			}
			if got := e.obs.mraiDeferrals.Value(); got != wantDeferred {
				t.Errorf("deferrals %d, want %d", got, wantDeferred)
			}
			if got := e.obs.idleTicks.Value(); got != idle {
				t.Errorf("a kick with news drew %d idle ticks", got-idle)
			}
			sent := stepUntil(t, clk, func() bool { return advertised(x, N, id) })
			if tc.inside && sent != quiet {
				t.Errorf("update to N left at %v, want the remembered tick %v", sent, quiet)
			}
			if !tc.inside && (sent == quiet || sent < now || sent >= now+e.cfg.MRAI) {
				t.Errorf("update to N left at %v, want a fresh phase in [%v, %v)", sent, now, now+e.cfg.MRAI)
			}
		})
	}
}

// TestQuiescentIgnoresIdleTicks: the last AS of a line learns the route and
// has nobody to tell (split horizon). Its tick is drawn and remembered, but
// nothing is queued for it: the control plane is quiescent there and then,
// and Converge returns without moving the clock. With the tick an armed
// timer, it waited out up to one MRAI of nothing.
func TestQuiescentIgnoresIdleTicks(t *testing.T) {
	clk := simclock.New()
	e := New(lineTopo(t), clk, Config{Seed: 42, Obs: obs.New()})
	clk.RunUntil(10 * time.Second)
	p := topo.ProductionPrefix(1)
	s4 := e.Speaker(4)
	s4.receive(s4.nbrIndex(3), update{id: s4.e.intern(p), path: topo.Path{3, 2, 1}})
	if _, ok := e.BestRoute(4, p); !ok {
		t.Fatal("AS4 did not select the route")
	}
	st := &s4.out[s4.nbrIndex(3)]
	if st.timerArmed || st.quietUntil <= clk.Now() || e.obs.idleTicks.Value() != 1 {
		t.Errorf("AS4→AS3: armed=%v, tick %v at %v, %d idle ticks: want one remembered tick still ahead",
			st.timerArmed, st.quietUntil, clk.Now(), e.obs.idleTicks.Value())
	}
	if !e.Quiescent() || clk.Len() != 0 {
		t.Errorf("quiescent=%v with %d events queued: an idle tick is not pending work", e.Quiescent(), clk.Len())
	}
	if !e.Converge(1) || clk.Now() != 10*time.Second {
		t.Errorf("Converge moved the clock to %v waiting for a tick that sends nothing", clk.Now())
	}
}

// TestWithdrawalStillCrossesAnIdleSession: a route going away is news only
// because something was advertised. AS3's session to AS4 is idling on a
// remembered tick when AS3 loses the prefix it had advertised there; the
// withdrawal must still go out, at that tick.
func TestWithdrawalStillCrossesAnIdleSession(t *testing.T) {
	e, clk := newEngine(t, lineTopo(t))
	p, q := topo.ProductionPrefix(1), topo.ProductionPrefix(4)
	e.Originate(1, p)
	converge(t, e)
	clk.RunFor(time.Hour)
	s3 := e.Speaker(3)
	id, _ := e.prefixes.lookup(p)
	if !advertised(s3, 4, id) {
		t.Fatal("AS3 never advertised the prefix to AS4")
	}
	// A route from AS4 gives AS3 nothing to send back to AS4.
	to4 := &s3.out[s3.nbrIndex(4)]
	s3.receive(s3.nbrIndex(4), update{id: s3.e.intern(q), path: topo.Path{4}})
	quiet := to4.quietUntil
	if to4.timerArmed || quiet <= clk.Now() {
		t.Fatalf("AS3→AS4 is not idling: armed=%v tick %v at %v", to4.timerArmed, quiet, clk.Now())
	}
	s3.receive(s3.nbrIndex(2), update{id: s3.e.intern(p)}) // AS2 withdraws
	if sent := stepUntil(t, clk, func() bool { return !advertised(s3, 4, id) }); sent != quiet {
		t.Errorf("withdrawal left at %v, want the remembered tick %v", sent, quiet)
	}
	converge(t, e)
	if r, ok := e.BestRoute(4, p); ok {
		t.Errorf("AS4 still holds %v: the withdrawal never crossed", r)
	}
}

// TestRestoreAdvertisesTheTableOrOnlyTicks: a returning session is offered
// everything export policy allows, and a speaker with nothing to offer only
// remembers a tick — it used to arm a timer whose flush could send nothing.
func TestRestoreAdvertisesTheTableOrOnlyTicks(t *testing.T) {
	clk := simclock.New()
	e := New(diamond(t), clk, Config{Seed: 4, Obs: obs.New()})
	e.SetAdjacencyDown(2, 4, true)
	e.SetAdjacencyDown(2, 4, false)
	if !e.Quiescent() || clk.Len() != 0 || e.obs.idleTicks.Value() != 2 {
		t.Fatalf("empty tables: quiescent=%v, %d events queued, %d idle ticks; want true, 0, 2",
			e.Quiescent(), clk.Len(), e.obs.idleTicks.Value())
	}

	// With tables: each side queues what export policy lets the other have
	// — its own block and the customer route to AS1's, not the route it will
	// learn from the other — and the far side ends up holding all of it.
	for _, owner := range []topo.ASN{1, 2, 4} {
		e.Originate(owner, topo.Block(owner))
	}
	converge(t, e)
	e.SetAdjacencyDown(2, 4, true)
	converge(t, e)
	e.SetAdjacencyDown(2, 4, false)
	for _, pair := range [][2]topo.ASN{{2, 4}, {4, 2}} {
		s, n := e.Speaker(pair[0]), pair[1]
		st := &s.out[s.nbrIndex(n)]
		if !st.timerArmed || st.pending.n != 2 {
			t.Errorf("AS%d→AS%d after restore: armed=%v pending=%v, want two prefixes queued", s.asn, n, st.timerArmed, st.pending.n)
		}
	}
	converge(t, e)
	// (AS4 goes back to reaching AS1 through AS2, so what it queued for
	// Block(1) is withdrawn again: only AS2's copy is there to find.)
	for _, c := range []struct {
		from, to, owner topo.ASN
	}{{2, 4, 2}, {2, 4, 1}, {4, 2, 4}} {
		if _, ok := e.Speaker(c.to).AdjIn(topo.Block(c.owner))[c.from]; !ok {
			t.Errorf("AS%d did not re-advertise Block(%d) to AS%d", c.from, c.owner, c.to)
		}
	}
}
