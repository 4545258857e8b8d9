package bgp

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// shardTestTopo builds a small Internet-like topology for determinism tests:
// big enough that barriers hold many concurrent speakers, small enough to
// converge quickly.
func shardTestTopo(t *testing.T) *topogen.Result {
	t.Helper()
	gen, err := topogen.Generate(topogen.Config{
		NumTier1:   5,
		NumTransit: 25,
		NumStub:    70,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// writeRIB flattens every speaker's loc-RIB (plus its update counter) into
// canonical text, so two runs can be compared byte-for-byte.
func writeRIB(w io.Writer, e *Engine) {
	for _, asn := range e.top.ASNs() {
		s := e.Speaker(asn)
		fmt.Fprintf(w, "AS%d sent=%d\n", asn, e.UpdatesSentBy(asn))
		for _, p := range s.KnownPrefixes() {
			r, _ := s.Best(p)
			fmt.Fprintf(w, "  %v via %v lp=%d\n", p, r.Path, r.LocalPref)
		}
	}
}

// ribDigest is writeRIB as a string, for sizes where holding it is cheap.
func ribDigest(e *Engine) string {
	var b strings.Builder
	writeRIB(&b, e)
	return b.String()
}

// churn exercises announcement, convergence, poisoning, session failure and
// recovery — the full event mix the sharded loop must replay identically.
func churn(t *testing.T, e *Engine, gen *topogen.Result) {
	t.Helper()
	origins := gen.Stubs[:4]
	for _, asn := range origins {
		e.Originate(asn, topo.ProductionPrefix(asn))
	}
	if !e.Converge(100_000_000) {
		t.Fatal("initial convergence did not quiesce")
	}
	// Poison: origin 0 inserts a transit AS into its announced path.
	o := origins[0]
	e.Announce(o, topo.ProductionPrefix(o), OriginConfig{
		Pattern: topo.Path{o, gen.Transit[0], o},
	})
	if !e.Converge(100_000_000) {
		t.Fatal("post-poison convergence did not quiesce")
	}
	// Session failure between two tier-1s (clique: always adjacent),
	// then recovery.
	a, b := gen.Tier1s[0], gen.Tier1s[1]
	e.SetAdjacencyDown(a, b, true)
	if !e.Converge(100_000_000) {
		t.Fatal("post-failure convergence did not quiesce")
	}
	e.SetAdjacencyDown(a, b, false)
	// Withdraw one origin entirely.
	e.Withdraw(origins[1], topo.ProductionPrefix(origins[1]))
	if !e.Converge(100_000_000) {
		t.Fatal("final convergence did not quiesce")
	}
}

// TestShardedWorkerCountInvariance is the sharded engine's core contract:
// for a fixed seed, every ShardWorkers >= 1 produces byte-identical loc-RIBs
// and per-AS update counts. PropJitter -1 is the repo's "no jitter"
// convention (experiments and the rig determinism test pass it): the
// barrier window must be sized for it, not for (1-(-1))·PropDelay. The
// "table grows between barriers" case starts churn while an earlier prefix
// is still propagating: churn's prefixes are then interned with barriers
// already run, so speakers hold RIB slices shorter than the prefix table.
//
// Every run also holds RIBVersion to the number of loc-RIB changes
// OnBestChange reported — the count the classic loop keeps directly and the
// sharded loop must reassemble from per-speaker window buffers at each
// merge — both a few barriers in and at the end; workers 0 (the classic
// loop itself) runs the same check. `make race` runs this with 4 workers.
func TestShardedWorkerCountInvariance(t *testing.T) {
	gen := shardTestTopo(t)
	for _, tc := range []struct {
		name       string
		propJitter float64
		midFlight  bool
	}{
		{"default jitter", 0, false},
		{"no jitter", -1, false},
		{"table grows between barriers", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) string {
				clk := simclock.New()
				e := New(gen.Top, clk, Config{Seed: 11, PropJitter: tc.propJitter, ShardWorkers: workers})
				var changes uint64
				e.OnBestChange = func(BestChange) { changes++ }
				checkVersion := func(when string) {
					t.Helper()
					if v := e.RIBVersion(); v != changes || v == 0 {
						t.Fatalf("ShardWorkers=%d %s: RIBVersion %d after %d loc-RIB changes", workers, when, v, changes)
					}
				}
				if tc.midFlight {
					early := gen.Stubs[10]
					e.Originate(early, topo.ProductionPrefix(early))
					e.Converge(20) // a few barriers, far short of quiescence
					checkVersion("mid-propagation")
					grown := 0
					for _, asn := range gen.Top.ASNs() {
						if len(e.Speaker(asn).best) > 0 {
							grown++
						}
					}
					if e.Quiescent() || grown == 0 {
						t.Fatalf("want the first prefix mid-propagation: quiescent=%v, %d speakers hold it", e.Quiescent(), grown)
					}
				}
				churn(t, e, gen)
				checkVersion("after churn")
				return fmt.Sprintf("%sribversion=%d\n", ribDigest(e), e.RIBVersion())
			}
			run(0)
			ref := run(1)
			for _, workers := range []int{2, 4, 8} {
				if got := run(workers); got != ref {
					t.Fatalf("ShardWorkers=%d diverged from ShardWorkers=1", workers)
				}
			}
			if ref == "" {
				t.Fatal("empty digest: no routes propagated")
			}
		})
	}
}

// TestShardedReplayStability re-runs the same sharded configuration twice;
// any hidden dependence on map iteration or scheduling shows up here.
func TestShardedReplayStability(t *testing.T) {
	gen := shardTestTopo(t)
	run := func() string {
		clk := simclock.New()
		e := New(gen.Top, clk, Config{Seed: 3, ShardWorkers: 4})
		churn(t, e, gen)
		return ribDigest(e)
	}
	if run() != run() {
		t.Fatal("sharded replay diverged between identical runs")
	}
}

// TestShardedMatchesClassicAtQuiescence checks the two execution models
// agree on the routing *outcome*. Their event interleavings (and rng
// streams) differ, so transient paths and update counts may differ — but
// Gao–Rexford policies with the deterministic tie-break have a unique
// stable state, and both loops must land on it.
func TestShardedMatchesClassicAtQuiescence(t *testing.T) {
	gen := shardTestTopo(t)
	best := func(workers int) string {
		clk := simclock.New()
		e := New(gen.Top, clk, Config{Seed: 9, ShardWorkers: workers})
		for _, asn := range gen.Stubs[:3] {
			e.Originate(asn, topo.ProductionPrefix(asn))
		}
		if !e.Converge(100_000_000) {
			t.Fatal("convergence did not quiesce")
		}
		var b strings.Builder
		for _, asn := range e.top.ASNs() {
			s := e.Speaker(asn)
			for _, p := range s.KnownPrefixes() {
				r, _ := s.Best(p)
				fmt.Fprintf(&b, "AS%d %v %v\n", asn, p, r.Path)
			}
		}
		return b.String()
	}
	if classic, sharded := best(0), best(2); classic != sharded {
		t.Fatal("sharded quiescent state differs from classic")
	}
}

// TestShardedDampeningDeterminism runs the flap-heavy path (dampening
// enabled, repeated re-announcements) under different worker counts.
func TestShardedDampeningDeterminism(t *testing.T) {
	gen := shardTestTopo(t)
	run := func(workers int) string {
		clk := simclock.New()
		e := New(gen.Top, clk, Config{
			Seed:         5,
			ShardWorkers: workers,
			Dampening:    DampeningConfig{Enabled: true},
		})
		o := gen.Stubs[0]
		p := topo.ProductionPrefix(o)
		for i := 0; i < 6; i++ {
			pat := topo.Path{o, gen.Transit[i%3], o}
			e.Announce(o, p, OriginConfig{Pattern: pat})
			if !e.Converge(100_000_000) {
				t.Fatal("convergence did not quiesce")
			}
			clk.RunFor(2 * time.Minute)
		}
		clk.RunFor(3 * time.Hour) // let reuse timers fire
		return ribDigest(e)
	}
	ref := run(1)
	if got := run(4); got != ref {
		t.Fatal("dampening state diverged across worker counts")
	}
}

// TestShardedPathInterning checks the arena is actually shared: across a
// ~100-AS topology with several origins, the number of distinct interned
// paths must be far below the number of adj-RIB-in entries.
func TestShardedPathInterning(t *testing.T) {
	gen := shardTestTopo(t)
	clk := simclock.New()
	e := New(gen.Top, clk, Config{Seed: 2, ShardWorkers: 2})
	for _, asn := range gen.Stubs[:4] {
		e.Originate(asn, topo.ProductionPrefix(asn))
	}
	if !e.Converge(100_000_000) {
		t.Fatal("convergence did not quiesce")
	}
	_, entries := e.RIBSizes()
	arena := e.PathArenaSize()
	if entries == 0 || arena == 0 {
		t.Fatalf("no routes: entries=%d arena=%d", entries, arena)
	}
	if arena*2 > entries {
		t.Fatalf("interning ineffective: %d distinct paths for %d entries", arena, entries)
	}
}

// TestShardedWindowValidation: a timing model whose jitter floor leaves no
// barrier window must be rejected at construction, not corrupt a run.
func TestShardedWindowValidation(t *testing.T) {
	gen := shardTestTopo(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for PropJitter=1 with ShardWorkers")
		}
	}()
	New(gen.Top, simclock.New(), Config{PropJitter: 1.0, ShardWorkers: 2})
}
