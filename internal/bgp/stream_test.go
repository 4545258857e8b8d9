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
// the constants zeroed) on the commit before post-send MRAI intervals stopped
// being scheduler events, where every flush that sent armed a timer event for
// its interval. That commit's update stream was in turn held, by this test
// without the Converge instants and the flap, to the stream of the commit
// before idle ticks stopped being events. CHANGES.md has the commands.
const (
	goldenFillStream  = 0x28a86a84f3b38c0d
	goldenChurnStream = 0x13496466c9464ed5
)

// TestUpdateStreamMatchesParent holds the engine to the update stream and the
// convergence instants it produced when every MRAI interval was a heap event:
// every loc-RIB change, at its virtual instant, with its path, every AS's
// update count, and the virtual instant at which each Converge call returns.
// Remembering an interval instead of queueing it may remove events that did
// nothing; it may not move, add or drop a single update, nor move the instant
// at which the control plane goes quiet — the last interval's end, which the
// engine's horizon event now stands for.
//
// Each step starts at a fixed virtual instant (RunUntil), never at the
// instant a Converge returned, so a moved Converge instant shows in the
// digest as itself instead of shifting every update after it.
func TestUpdateStreamMatchesParent(t *testing.T) {
	gen := hundredASTopo(t)
	clk := simclock.New()
	e := New(gen.Top, clk, Config{Seed: 11})
	h := fnv.New64a()
	e.OnBestChange = func(c BestChange) {
		fmt.Fprintf(h, "%d AS%d %v %v\n", c.At, c.AS, c.Prefix, c.Path)
	}
	converge := func(step string) {
		t.Helper()
		if !e.Converge(100_000_000) {
			t.Fatalf("%s: did not quiesce", step)
		}
		fmt.Fprintf(h, "%s: quiet at %d\n", step, clk.Now())
	}
	closeStage := func(name string, want uint64) {
		t.Helper()
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
	converge("fill")
	closeStage("fill", goldenFillStream)

	// Stage 2, from t=1h: poison, a stub's session flapping inside the MRAI
	// intervals the poison left running, unpoison, a tier-1 session failing
	// and returning, a withdrawal — ten minutes apart from the unpoison on.
	const hour = time.Hour
	o, pfx := origins[0], topo.ProductionPrefix(origins[0])
	a, b := gen.Tier1s[0], gen.Tier1s[1]
	stub := gen.Stubs[len(gen.Stubs)-1]
	// Poison the first transit on the last stub's path to the origin.
	r, ok := e.BestRoute(stub, pfx)
	if !ok || len(r.Path) < 3 {
		t.Fatalf("no transit path to poison: %v", r)
	}
	clk.RunUntil(hour)
	e.Announce(o, pfx, OriginConfig{Pattern: topo.Path{o, r.Path[0], o}})
	// The poison's last update lands at ≈ 1h+99s and the MRAI intervals
	// after it run to ≈ 1h+130s. A flap at 1h+105s sends the stub its
	// provider's table and is done before they end, but its own interval
	// ends after them: the control plane goes quiet at that later instant.
	clk.RunUntil(hour + 105*time.Second)
	p := gen.Top.Providers(stub)[0]
	e.SetAdjacencyDown(stub, p, true)
	e.SetAdjacencyDown(stub, p, false)
	converge("poison and flap")
	clk.RunUntil(hour + 10*time.Minute)
	e.Announce(o, pfx, OriginConfig{Pattern: topo.Path{o, o, o}})
	converge("unpoison")
	clk.RunUntil(hour + 20*time.Minute)
	e.SetAdjacencyDown(a, b, true)
	converge("session down")
	clk.RunUntil(hour + 30*time.Minute)
	e.SetAdjacencyDown(a, b, false)
	e.Withdraw(origins[1], topo.ProductionPrefix(origins[1]))
	converge("session up and withdrawal")
	closeStage("churn", goldenChurnStream)
	if e.TotalUpdatesSent() < 1000 {
		t.Fatalf("only %d updates sent: the stages exercised nothing", e.TotalUpdatesSent())
	}
}
