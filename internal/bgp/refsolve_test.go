package bgp_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/bgp/refsolve"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/nettest"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// world is a bare engine and data plane over one topology, with a handful of
// prefixes, and the test's own record of what the engine was told.
type world struct {
	name  string
	top   *topo.Topology
	eng   *bgp.Engine
	plane *dataplane.Plane
	// owners[i] originates pfxs[i] in the plain state; owners[0]'s prefix is
	// the one the scenarios act on, the rest stand by.
	owners  []topo.ASN
	pfxs    []netip.Prefix
	poison  topo.ASN // the AS the poison scenarios name; 0: the busiest transit
	origins map[netip.Prefix]map[topo.ASN]refsolve.Origin
	down    map[topo.ASPair]bool
	checks  int // scenarios checked
}

func newWorld(t *testing.T, name string, top *topo.Topology, owners []topo.ASN) *world {
	t.Helper()
	eng := bgp.New(top, simclock.New(), bgp.Config{Seed: 1})
	w := &world{
		name: name, top: top, eng: eng, plane: dataplane.New(top, eng), owners: owners,
		origins: map[netip.Prefix]map[topo.ASN]refsolve.Origin{},
		down:    map[topo.ASPair]bool{},
	}
	for _, o := range owners {
		w.pfxs = append(w.pfxs, topo.ProductionPrefix(o))
	}
	return w
}

func (w *world) announce(asn topo.ASN, p netip.Prefix, cfg bgp.OriginConfig) {
	w.eng.Announce(asn, p, cfg)
	if w.origins[p] == nil {
		w.origins[p] = map[topo.ASN]refsolve.Origin{}
	}
	w.origins[p][asn] = refsolve.Origin(cfg)
}

func (w *world) withdraw(asn topo.ASN, p netip.Prefix) {
	w.eng.Withdraw(asn, p)
	delete(w.origins[p], asn)
}

func (w *world) setDown(a, b topo.ASN, down bool) {
	w.eng.SetAdjacencyDown(a, b, down)
	w.down[topo.MakeASPair(a, b)] = down
}

// ref is r as refsolve writes it; nil for no route.
func ref(r *bgp.Route, ok bool) *refsolve.Route {
	if !ok {
		return nil
	}
	return &refsolve.Route{Path: r.Path, From: r.From, Rel: r.Rel, LocalPref: r.LocalPref, Originated: r.Originated}
}

// show renders r for a diff line.
func show(r *refsolve.Route) string {
	switch {
	case r == nil:
		return "no route"
	case r.Originated:
		return "originated"
	}
	return fmt.Sprintf("%v via AS%d (%v, pref %d)", r.Path, r.From, r.Rel, r.LocalPref)
}

// walk is the AS path a packet from asn follows under the routes in sol:
// asn, then the route's path up to the first AS that originates the prefix.
func walk(sol map[topo.ASN]*refsolve.Route, asn topo.ASN) topo.Path {
	out := topo.Path{asn}
	if r := sol[asn]; r != nil {
		for _, hop := range r.Path {
			out = append(out, hop)
			if sol[hop] != nil && sol[hop].Originated {
				break
			}
		}
	}
	return out
}

// check converges the engine and holds every AS's selected route for every
// prefix, and the AS path a packet from its hub takes through the walk
// cache, to refsolve's answer. It returns the answer for the scenarios'
// prefix.
func (w *world) check(t *testing.T, scenario string) map[topo.ASN]*refsolve.Route {
	t.Helper()
	if !w.eng.Converge(bgp.MaxConvergeSteps) {
		t.Fatalf("%s, %s: no convergence", w.name, scenario)
	}
	w.checks++
	var first map[topo.ASN]*refsolve.Route
	for i, p := range w.pfxs {
		sol, err := refsolve.Solve(w.top, w.down, w.origins[p])
		if err != nil {
			t.Fatalf("%s, %s, %v: %v", w.name, scenario, p, err)
		}
		if i == 0 {
			first = sol
		}
		dst := topo.ProductionAddr(w.owners[i])
		engine := map[topo.ASN]*refsolve.Route{}
		var diff []string
		for _, asn := range w.top.ASNs() {
			got := ref(w.eng.BestRoute(asn, p))
			if got != nil {
				engine[asn] = got
			}
			if !got.Equal(sol[asn]) {
				diff = append(diff, fmt.Sprintf("AS%d: engine %s, refsolve %s", asn, show(got), show(sol[asn])))
			}
			hub := w.top.AS(asn).Routers[0]
			res := w.plane.Forward(hub, dataplane.Packet{Src: w.top.Router(hub).Addr, Dst: dst})
			if want := walk(sol, asn); res.Delivered() != (sol[asn] != nil) || !res.ASPath().Equal(want) {
				diff = append(diff, fmt.Sprintf("AS%d: data plane %v along %v, refsolve's path %v", asn, res.Reason, res.ASPath(), want))
			}
		}
		if len(diff) > 0 {
			t.Fatalf("%s, %s, %v: %d differences\n%s\n%s", w.name, scenario, p, len(diff),
				strings.Join(diff, "\n"), w.firstDecision(p, engine))
		}
	}
	return first
}

// firstDecision names the first AS whose engine route is not what refsolve
// decides from its neighbors' engine routes. The fixed point is unique, so
// an engine that differs from Solve's answer has such an AS unless only the
// data plane is wrong.
func (w *world) firstDecision(p netip.Prefix, engine map[topo.ASN]*refsolve.Route) string {
	for _, asn := range w.top.ASNs() {
		if want := refsolve.Decide(w.top, w.down, w.origins[p], asn, engine); !want.Equal(engine[asn]) {
			return fmt.Sprintf("first decision that differs: AS%d holds %s; its neighbors' routes decide %s", asn, show(engine[asn]), show(want))
		}
	}
	return "every AS's route is what its neighbors' routes decide: only the data plane differs"
}

// run announces every prefix and checks the plain state, then takes the named
// steps in order on the one engine, so every check also finds the walk cache
// warm from the one before. The steps are "plain", "O-O-O", "O-A-O" (poison
// A), "withhold", "selective" (O-A-O to one neighbor only), "link down",
// "link up", "second origin", "second origin withdrawn" and "withdraw", after
// which no adj-RIB-in may keep anything.
func (w *world) run(t *testing.T, steps ...string) {
	t.Helper()
	o, p := w.owners[0], w.pfxs[0]
	for i, b := range w.owners[1:] {
		w.announce(b, w.pfxs[i+1], bgp.OriginConfig{})
	}
	w.announce(o, p, bgp.OriginConfig{})
	plain := w.check(t, "plain")

	// The poisoned AS is the busiest transit of the plain state that is not
	// o's neighbor; the selective poison and the withholding aim at o's
	// first provider; the failed link is the poisoned AS's first hop toward
	// o; the second origin is the AS farthest from o.
	a, far := w.poison, o
	uses := map[topo.ASN]int{}
	for _, asn := range w.top.ASNs() {
		r := plain[asn]
		if r == nil {
			continue
		}
		for _, hop := range r.Path {
			if hop != o && !w.top.Adjacent(o, hop) {
				uses[hop]++
			}
		}
		if len(r.Path) > len(plain[far].Path) {
			far = asn
		}
	}
	nb := w.top.Neighbors(o)[0]
	if ps := w.top.Providers(o); len(ps) > 0 {
		nb = ps[0]
	}
	for asn, n := range uses {
		if a == 0 || n > uses[a] || n == uses[a] && asn < a {
			a = asn
		}
	}
	if a == 0 { // every transit is o's neighbor
		a = nb
	}
	baseline := topo.Path{o, o, o}
	hop := plain[a].Path[0]

	do := map[string]func() string{
		"plain": func() string { w.announce(o, p, bgp.OriginConfig{}); return "plain" },
		"O-O-O": func() string { w.announce(o, p, bgp.OriginConfig{Pattern: baseline}); return "O-O-O" },
		"O-A-O": func() string {
			w.announce(o, p, bgp.OriginConfig{Pattern: topo.Path{o, a, o}})
			return fmt.Sprintf("O-%d-O", a)
		},
		"withhold": func() string {
			w.announce(o, p, bgp.OriginConfig{Pattern: baseline, Withhold: map[topo.ASN]bool{nb: true}})
			return fmt.Sprintf("withhold from AS%d", nb)
		},
		"selective": func() string {
			w.announce(o, p, bgp.OriginConfig{Pattern: baseline, PerNeighbor: map[topo.ASN]topo.Path{nb: {o, a, o}}})
			return fmt.Sprintf("O-%d-O to AS%d only", a, nb)
		},
		"link down": func() string { w.setDown(a, hop, true); return fmt.Sprintf("link %d-%d down", a, hop) },
		"link up":   func() string { w.setDown(a, hop, false); return fmt.Sprintf("link %d-%d up", a, hop) },
		"second origin": func() string {
			w.announce(far, p, bgp.OriginConfig{})
			return fmt.Sprintf("second origin AS%d", far)
		},
		"second origin withdrawn": func() string {
			w.withdraw(far, p)
			return fmt.Sprintf("second origin AS%d withdrawn", far)
		},
		"withdraw": func() string { w.withdraw(o, p); return "withdraw" },
	}
	for _, s := range steps {
		w.check(t, do[s]())
		if s != "withdraw" {
			continue
		}
		for _, asn := range w.top.ASNs() {
			if in := w.eng.Speaker(asn).AdjIn(p); len(in) != 0 {
				t.Fatalf("%s, withdraw: AS%d keeps adj-RIB-in %v", w.name, asn, in)
			}
		}
	}
}

// randTopoB builds a random provider-tree-plus-peering internetwork, one
// router per AS and one border link per relationship.
func randTopoB(t *testing.T, rng *rand.Rand, n int) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	for i := 1; i <= n; i++ {
		b.AddAS(topo.ASN(i), "")
		b.AddRouter(topo.ASN(i), "")
	}
	for i := 2; i <= n; i++ {
		p := topo.ASN(1 + rng.Intn(i-1))
		b.Provider(topo.ASN(i), p)
		b.ConnectAS(topo.ASN(i), p)
	}
	for k := 0; k < n/2; k++ {
		a := topo.ASN(1 + rng.Intn(n))
		c := topo.ASN(1 + rng.Intn(n))
		if a != c && !b.Related(a, c) {
			b.Peer(a, c)
			b.ConnectAS(a, c)
		}
	}
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// multihomed returns up to k stubs, those with two providers or more first.
func multihomed(top *topo.Topology, stubs []topo.ASN, k int) []topo.ASN {
	var multi, single []topo.ASN
	for _, s := range stubs {
		if len(top.Providers(s)) > 1 {
			multi = append(multi, s)
		} else {
			single = append(single, s)
		}
	}
	return append(multi, single...)[:k]
}

// matchSolve runs the steps on fresh engines over the paper's Fig. 2 worlds,
// random provider trees with peering, and topogen worlds of 200 and 1k ASes,
// holding every AS's converged loc-RIB and forwarded path to refsolve after
// each step.
func matchSolve(t *testing.T, steps ...string) {
	// Fig. 2 poisons A, its busiest transit; the unpoisonable variant
	// poisons F, which keeps what names it.
	unpoisonable := newWorld(t, "Fig. 2, F unpoisonable", nettest.Fig2Unpoisonable(t).Top, []topo.ASN{nettest.O, nettest.C})
	unpoisonable.poison = nettest.F
	worlds := []*world{newWorld(t, "Fig. 2", nettest.Fig2(t).Top, []topo.ASN{nettest.O, nettest.D}), unpoisonable}

	// Random provider trees with peering: 31 worlds of 10 to 36 ASes.
	for _, d := range []struct {
		seed             int64
		trials, min, max int
	}{{99, 10, 12, 36}, {7, 8, 12, 31}, {31, 6, 10, 29}, {41, 6, 12, 31}, {59, 1, 25, 25}} {
		rng := rand.New(rand.NewSource(d.seed))
		for trial := 0; trial < d.trials; trial++ {
			n := d.min + rng.Intn(d.max-d.min+1)
			top := randTopoB(t, rng, n)
			o := topo.ASN(1 + rng.Intn(n))
			worlds = append(worlds, newWorld(t, fmt.Sprintf("random %d/%d", d.seed, trial), top, []topo.ASN{o, topo.ASN(1 + (int(o)+n/2)%n)}))
		}
	}

	for _, g := range []struct {
		name string
		cfg  topogen.Config
	}{
		{"topogen 200", topogen.Config{Seed: 3, NumTransit: 45}},
		{"topogen 1k", topogen.Config{Seed: 1, NumTransit: 200, NumStub: 795}},
		{"topogen 1k Large", topogen.Config{Seed: 1, NumTransit: 200, NumStub: 795, Large: true}},
	} {
		gen, err := topogen.Generate(g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, newWorld(t, g.name, gen.Top, multihomed(gen.Top, gen.Stubs, 3)))
	}

	checks, routes := 0, 0
	for _, w := range worlds {
		w.run(t, steps...)
		checks += w.checks
		routes += w.checks * len(w.pfxs) * w.top.NumASes()
	}
	t.Logf("%d worlds, %d scenario checks, %d (AS, prefix) routes and forwarded paths identical", len(worlds), checks, routes)
}

// TestEngineMatchesSolve takes every step in turn: plain, prepended,
// poisoned, withheld and selectively poisoned announcements, a link going
// down and up, a second origin coming and going, and a withdrawal.
func TestEngineMatchesSolve(t *testing.T) {
	matchSolve(t, "O-O-O", "O-A-O", "withhold", "selective", "link down", "link up",
		"second origin", "second origin withdrawn", "withdraw")
}

// The five tests below each hold one property to refsolve's exact answer, on
// the steps that most stress it.

// TestInvariantValleyFreeAndLoopFree: a poison and a failed link move
// routes onto other valley-free, loop-free paths, and no others.
func TestInvariantValleyFreeAndLoopFree(t *testing.T) {
	matchSolve(t, "O-A-O", "link down", "link up")
}

// TestInvariantGaoRexfordPreference: with two origins every AS prefers by
// relationship first, then returns to the one origin's routes.
func TestInvariantGaoRexfordPreference(t *testing.T) {
	matchSolve(t, "second origin", "second origin withdrawn")
}

// TestInvariantWithdrawLeavesNoState: withdrawing a poisoned announcement
// leaves no route and no adj-RIB-in entry anywhere.
func TestInvariantWithdrawLeavesNoState(t *testing.T) {
	matchSolve(t, "O-A-O", "withdraw")
}

// TestInvariantPoisonUnpoisonRoundTrip: poisoning and unpoisoning, whole
// and selective, leave nothing of the poison behind.
func TestInvariantPoisonUnpoisonRoundTrip(t *testing.T) {
	matchSolve(t, "O-O-O", "O-A-O", "O-O-O", "selective", "withhold", "plain")
}

// TestInvariantForwardingMatchesControlPlane: the walk cache follows
// announcement and link changes interleaved in the other order.
func TestInvariantForwardingMatchesControlPlane(t *testing.T) {
	matchSolve(t, "link down", "O-A-O", "link up", "O-O-O")
}
