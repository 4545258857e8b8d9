package bgp

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// The two digests below were printed by this very test (its body unchanged,
// the constants zeroed) on the commit before idle MRAI ticks stopped being
// scheduler events, where every kicked session armed a timer whether or not
// it had anything to send. See CHANGES.md, PR 21, for the commands.
const (
	goldenFillStream  = 0x81f96085c8d815ed
	goldenChurnStream = 0x25b7c7013623b2d5
)

// TestUpdateStreamMatchesParent holds the engine to the update stream it
// produced when idle ticks were heap events: every loc-RIB change, at its
// virtual instant, with its path, and every AS's update count. Remembering a
// tick instead of queueing it may remove events that did nothing; it may not
// move, add or drop a single update.
//
// Each stage starts at a fixed virtual instant, long after the stage before
// went quiet, and its steps are spaced by RunUntil rather than by Converge:
// Quiescent no longer waits for ticks that send nothing, so Converge returns
// earlier than it did, and a step placed "when Converge returns" would start
// at a different instant on the two sides.
func TestUpdateStreamMatchesParent(t *testing.T) {
	gen := hundredASTopo(t)
	clk := simclock.New()
	e := New(gen.Top, clk, Config{Seed: 11})
	h := fnv.New64a()
	e.OnBestChange = func(c BestChange) {
		fmt.Fprintf(h, "%d AS%d %v %v\n", c.At, c.AS, c.Prefix, c.Path)
	}
	closeStage := func(name string, want uint64) {
		t.Helper()
		if !e.Converge(100_000_000) {
			t.Fatalf("%s: did not quiesce", name)
		}
		for _, asn := range gen.Top.ASNs() {
			fmt.Fprintf(h, "AS%d sent=%d\n", asn, e.UpdatesSentBy(asn))
		}
		if got := h.Sum64(); got != want {
			t.Errorf("%s: update stream digest %#x, parent commit's %#x", name, got, want)
		}
	}

	// Stage 1, from t=0: four origins fill the table over the prepended
	// baseline of §3.1.1.
	origins := gen.Stubs[:4]
	for _, o := range origins {
		e.Announce(o, topo.ProductionPrefix(o), OriginConfig{Pattern: topo.Path{o, o, o}})
	}
	closeStage("fill", goldenFillStream)

	// Stage 2, from t=1h: poison, unpoison, a tier-1 session failing and
	// returning, a withdrawal — each ten minutes after the last.
	const hour = time.Hour
	o, pfx := origins[0], topo.ProductionPrefix(origins[0])
	a, b := gen.Tier1s[0], gen.Tier1s[1]
	// Poison the first transit on the last stub's path to the origin.
	r, ok := e.BestRoute(gen.Stubs[len(gen.Stubs)-1], pfx)
	if !ok || len(r.Path) < 3 {
		t.Fatalf("no transit path to poison: %v", r)
	}
	clk.RunUntil(hour)
	e.Announce(o, pfx, OriginConfig{Pattern: topo.Path{o, r.Path[0], o}})
	clk.RunUntil(hour + 10*time.Minute)
	e.Announce(o, pfx, OriginConfig{Pattern: topo.Path{o, o, o}})
	clk.RunUntil(hour + 20*time.Minute)
	e.SetAdjacencyDown(a, b, true)
	clk.RunUntil(hour + 30*time.Minute)
	e.SetAdjacencyDown(a, b, false)
	e.Withdraw(origins[1], topo.ProductionPrefix(origins[1]))
	closeStage("churn", goldenChurnStream)
	if e.TotalUpdatesSent() < 1000 {
		t.Fatalf("only %d updates sent: the stages exercised nothing", e.TotalUpdatesSent())
	}
}
