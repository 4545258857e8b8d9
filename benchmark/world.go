package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"time"

	"lifeguard"
	"lifeguard/internal/bgp"
	"lifeguard/internal/core/remedy"
	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
	"lifeguard/internal/splice"
)

// convergeBudget bounds every Converge call; reaching it is a failed op.
const convergeBudget = 500_000_000

// newRNG derives an independent stream from the run seed; all of the
// benchmark's randomness comes from here.
func newRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// sample returns k distinct elements of xs in seeded order.
func sample[T any](rng *rand.Rand, xs []T, k int) []T {
	if k > len(xs) {
		k = len(xs)
	}
	out := make([]T, 0, k)
	for _, i := range rng.Perm(len(xs))[:k] {
		out = append(out, xs[i])
	}
	return out
}

// scenario is one repairable outage: blame, a transit AS on target's path
// to the origin, silently drops everything addressed to the origin's block
// — the paper's canonical reverse-path failure — and the topology holds a
// policy-compliant path from target to origin that avoids blame, so a poison
// can route around it.
type scenario struct {
	target, blame lifeguard.ASN
}

// candidateScenarios lists, in seeded target order, every (target, transit
// on target's current path to origin) pair that splice.CanReach says can be
// routed around; at most one per target, so scenarios exercise distinct
// monitored pairs.
func candidateScenarios(n *lifeguard.Network, origin lifeguard.ASN, targets []lifeguard.ASN) []scenario {
	var out []scenario
	for _, t := range targets {
		for _, hop := range n.Eng.ASPathTo(t, lifeguard.ProductionAddr(origin)) {
			if hop == origin || hop == t {
				continue
			}
			if splice.CanReach(n.Top, t, origin, splice.Avoid1(hop)) {
				out = append(out, scenario{target: t, blame: hop})
				break
			}
		}
	}
	return out
}

// deployment is the cast of one LIFEGUARD session on a generated Internet.
type deployment struct {
	n       *lifeguard.Network
	s       *lifeguard.Session
	origin  lifeguard.ASN
	vps     []lifeguard.RouterID
	targets []lifeguard.ASN
}

// deploy draws a multihomed origin stub, a helper vantage point and
// ntargets monitored stubs from pool, wires the session over n and starts it,
// then runs the clock long enough for the atlas to hold two refresh rounds
// and the monitor to be in steady state.
func deploy(n *lifeguard.Network, rng *rand.Rand, pool []lifeguard.ASN, ntargets int) (*deployment, error) {
	var multihomed []lifeguard.ASN
	for _, a := range pool {
		if len(n.Top.Providers(a)) >= 2 {
			multihomed = append(multihomed, a)
		}
	}
	if len(multihomed) == 0 {
		return nil, fmt.Errorf("no multihomed stub to play the origin")
	}
	origin := multihomed[rng.Intn(len(multihomed))]
	var others []lifeguard.ASN
	for _, a := range pool {
		if a != origin {
			others = append(others, a)
		}
	}
	cast := sample(rng, others, ntargets+1)
	if len(cast) < ntargets+1 {
		return nil, fmt.Errorf("only %d stubs to cast from, need %d", len(pool), ntargets+2)
	}
	d := &deployment{n: n, origin: origin, targets: cast[1:]}
	d.vps = []lifeguard.RouterID{n.Hub(origin), n.Hub(cast[0])}
	var addrs []netip.Addr
	for _, t := range d.targets {
		addrs = append(addrs, n.RouterAddr(n.Hub(t)))
	}
	s, err := lifeguard.NewRig(n).AddSession(lifeguard.SessionConfig{Config: lifeguard.Config{
		Origin: origin, VPs: d.vps, Targets: addrs,
	}})
	if err != nil {
		return nil, err
	}
	d.s = s
	s.Start()
	n.Clk.RunFor(20 * time.Minute)
	return d, nil
}

// runClock advances virtual time by dur. Untraced it is Clk.RunFor. Traced,
// the benchmark steps the scheduler itself — same events, same order — so it
// can count them and sample the queue length, which RunFor hides.
func runClock(e env, clk *simclock.Scheduler, dur time.Duration, name string, ws *windowStats) {
	id := e.tr.begin(name)
	defer e.tr.end(id)
	if !e.traced() {
		clk.RunFor(dur)
		return
	}
	end := clk.Now() + dur
	for {
		at, ok := clk.NextAt()
		if !ok || at > end {
			break
		}
		ws.lenSum += int64(clk.Len())
		ws.steps++
		clk.Step()
	}
	clk.RunFor(end - clk.Now())
}

// convergeChunk is how many control-plane events a bulk convergence handles
// between offers to yield in a paired run: a few tens of milliseconds.
const convergeChunk = 25_000

// converge drains the BGP control plane. Untraced it is Engine.Converge —
// in chunks of convergeChunk events when sw is given, with an offer to
// yield between them (same events, same order). Traced, it steps one event
// at a time through the same call, to count events and sample the queue
// length.
func converge(e env, eng *bgp.Engine, clk *simclock.Scheduler, ws *windowStats, sw *stopwatch) bool {
	id := e.tr.begin("bgp.Converge")
	defer e.tr.end(id)
	if !e.traced() {
		if sw == nil {
			return eng.Converge(convergeBudget)
		}
		for done := 0; done < convergeBudget; done += convergeChunk {
			if eng.Converge(convergeChunk) {
				return true
			}
			sw.yield()
		}
		return false
	}
	for i := 0; i < convergeBudget; i++ {
		n := clk.Len()
		if eng.Converge(1) {
			return true
		}
		ws.lenSum += int64(n)
		ws.steps++
	}
	return false
}

// ribDigest is an FNV-1a digest of the selected routes of every AS in asns
// for every prefix in prefixes: next hop, full AS path, and whether a route
// exists at all. Two engines agree on it only if they converged to the same
// routing state.
func ribDigest(eng *bgp.Engine, asns []lifeguard.ASN, prefixes []netip.Prefix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:4])
	}
	for _, p := range prefixes {
		for _, a := range asns {
			r, ok := eng.BestRoute(a, p)
			if !ok {
				put(0xFFFFFFFF)
				continue
			}
			put(uint32(r.From))
			put(uint32(len(r.Path)))
			for _, hop := range r.Path {
				put(uint32(hop))
			}
		}
	}
	return h.Sum64()
}

// counters flattens an obs snapshot to name{label=value,…} → value, summing
// over tenant partitions so a session's metrics read the same whichever
// tenant label the rig gave it. Histograms contribute their count.
func counters(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range reg.Snapshot().Metrics {
		var ls []string
		for _, l := range m.Labels {
			if l.Key != "tenant" {
				ls = append(ls, l.Key+"="+l.Value)
			}
		}
		sort.Strings(ls)
		key := m.Name
		if len(ls) > 0 {
			key += "{" + strings.Join(ls, ",") + "}"
		}
		if m.Kind == "histogram" {
			out[key] += m.Count
		} else {
			out[key] += m.Value
		}
	}
	return out
}

// sumPrefix adds up every counter whose key starts with prefix — all label
// values of one family.
func sumPrefix(c map[string]int64, prefix string) int64 {
	var total int64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// opEvents is what an outage op looks for in the session history.
type opEvents struct {
	poisoned    bool
	recoveredAt time.Duration // first EventRecovered for target; 0 if none
	unpoisoned  bool
}

// eventsSince scans the session history from index from.
func eventsSince(s *lifeguard.Session, from int, target netip.Addr) opEvents {
	var ev opEvents
	for _, e := range s.History[from:] {
		switch e.Kind {
		case lifeguard.EventRepair:
			if e.Action == remedy.Poisoned {
				ev.poisoned = true
			}
		case lifeguard.EventRecovered:
			if e.Target == target && ev.recoveredAt == 0 {
				ev.recoveredAt = e.At
			}
		case lifeguard.EventUnpoison:
			ev.unpoisoned = true
		}
	}
	return ev
}
