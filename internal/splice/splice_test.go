package splice

import (
	"math/rand"
	"net/netip"
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/probe"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// randTopo builds a random AS-level internet: a provider tree rooted at AS 1
// plus random peering edges.
func randTopo(t *testing.T, rng *rand.Rand, n int) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	for i := 1; i <= n; i++ {
		b.AddAS(topo.ASN(i), "")
	}
	for i := 2; i <= n; i++ {
		b.Provider(topo.ASN(i), topo.ASN(1+rng.Intn(i-1)))
	}
	for k := 0; k < n/3; k++ {
		a := topo.ASN(1 + rng.Intn(n))
		c := topo.ASN(1 + rng.Intn(n))
		if a == c {
			continue
		}
		func() {
			defer func() { recover() }() // skip if already related
			b.Peer(a, c)
		}()
	}
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// TestReachMatchesBGPPropagation cross-validates the static valley-free
// reachability against actual protocol propagation: an AS ends up with a
// route iff Reach says a policy-compliant path exists. This is the exact
// analogue of the paper's §5.1 simulation-vs-testbed validation.
func TestReachMatchesBGPPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(30)
		top := randTopo(t, rng, n)
		origin := topo.ASN(1 + rng.Intn(n))
		prefix := topo.ProductionPrefix(origin)

		clk := simclock.New()
		eng := bgp.New(top, clk, bgp.Config{Seed: int64(trial)})
		eng.Originate(origin, prefix)
		if !eng.Converge(10_000_000) {
			t.Fatal("no convergence")
		}
		want := Reach(top, origin, nil)
		for _, asn := range top.ASNs() {
			_, has := eng.BestRoute(asn, prefix)
			if has != want[asn] {
				t.Fatalf("trial %d AS %d: engine=%v reach=%v (origin %d)",
					trial, asn, has, want[asn], origin)
			}
		}
	}
}

// TestReachAvoidMatchesPoisonedBGP extends the cross-validation to
// poisoning: after poisoning X, exactly the ASes with a valley-free path
// avoiding X retain a route.
func TestReachAvoidMatchesPoisonedBGP(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(30)
		top := randTopo(t, rng, n)
		origin := topo.ASN(1 + rng.Intn(n))
		var x topo.ASN
		for {
			x = topo.ASN(1 + rng.Intn(n))
			if x != origin {
				break
			}
		}
		prefix := topo.ProductionPrefix(origin)
		clk := simclock.New()
		eng := bgp.New(top, clk, bgp.Config{Seed: int64(trial)})
		eng.Announce(origin, prefix, bgp.OriginConfig{Pattern: topo.Path{origin, x, origin}})
		if !eng.Converge(10_000_000) {
			t.Fatal("no convergence")
		}
		want := Reach(top, origin, Avoid1(x))
		for _, asn := range top.ASNs() {
			_, has := eng.BestRoute(asn, prefix)
			if asn == x {
				if has {
					t.Fatalf("trial %d: poisoned AS %d kept a route", trial, x)
				}
				continue
			}
			if has != want[asn] {
				t.Fatalf("trial %d AS %d: engine=%v reach=%v (origin %d, poison %d)",
					trial, asn, has, want[asn], origin, x)
			}
		}
	}
}

func TestReachSimpleShapes(t *testing.T) {
	// chain: 3 -> 2 -> 1 (customers of), origin 3 (a stub).
	b := topo.NewBuilder()
	b.AddAS(1, "")
	b.AddAS(2, "")
	b.AddAS(3, "")
	b.Provider(2, 1)
	b.Provider(3, 2)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := Reach(top, 3, nil)
	if len(r) != 3 {
		t.Fatalf("reach = %v", r)
	}
	// Avoiding the only provider chain cuts everything upstream.
	r = Reach(top, 3, Avoid1(2))
	if len(r) != 1 || !r[3] {
		t.Fatalf("reach avoiding 2 = %v", r)
	}
	if CanReach(top, 1, 3, Avoid1(2)) {
		t.Fatal("1 should not reach 3 avoiding 2")
	}
	if !CanReach(top, 1, 3, nil) {
		t.Fatal("1 should reach 3")
	}
	// Avoiding the origin yields the empty set.
	if got := Reach(top, 3, Avoid1(3)); len(got) != 0 {
		t.Fatalf("reach avoiding origin = %v", got)
	}
	if CanReach(top, 3, 3, Avoid1(3)) {
		t.Fatal("avoided source cannot reach")
	}
}

func TestReachValleyRule(t *testing.T) {
	// 1 and 2 are both customers of P(3); 1 and 2 peer with nobody;
	// 4 peers with 3. Origin 1: 4 reaches via peer edge then downhill is
	// not needed; but a customer of 4 (5) also reaches (downhill after
	// peer). A second peer hop (6 peering 4) must NOT reach.
	b := topo.NewBuilder()
	for i := 1; i <= 6; i++ {
		b.AddAS(topo.ASN(i), "")
	}
	b.Provider(1, 3)
	b.Provider(2, 3)
	b.Peer(3, 4)
	b.Provider(5, 4)
	b.Peer(4, 6)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := Reach(top, 1, nil)
	for _, want := range []topo.ASN{1, 2, 3, 4, 5} {
		if !r[want] {
			t.Fatalf("AS %d should reach: %v", want, r)
		}
	}
	if r[6] {
		t.Fatal("AS 6 would need two peer edges (a valley): must not reach")
	}
}

// --- Splice tests -----------------------------------------------------

func hop(router int, as topo.ASN) probe.Hop {
	return probe.Hop{Router: topo.RouterID(router), AS: as, Addr: netip.AddrFrom4([4]byte{9, byte(as), 0, byte(router)})}
}

func TestSpliceBasic(t *testing.T) {
	src := HopPath{hop(1, 100), hop(2, 200)}
	dst := HopPath{hop(9, 150), hop(2, 200), hop(3, 300)}
	obs := NewObserved()
	obs.AddASPath(topo.Path{100, 200, 300})
	got, ok := Splice([]HopPath{src}, []HopPath{dst}, 0, obs)
	if !ok {
		t.Fatal("splice not found")
	}
	if !got.ASPath().Equal(topo.Path{100, 200, 300}) {
		t.Fatalf("spliced AS path = %v", got.ASPath())
	}
	if len(got) != 3 || got[1].Router != 2 {
		t.Fatalf("spliced hops = %+v", got)
	}
}

func TestSpliceRejectsUnobservedTriple(t *testing.T) {
	src := HopPath{hop(1, 100), hop(2, 200)}
	dst := HopPath{hop(2, 200), hop(3, 300)}
	obs := NewObserved()
	obs.AddASPath(topo.Path{100, 200, 999}) // wrong continuation
	if _, ok := Splice([]HopPath{src}, []HopPath{dst}, 0, obs); ok {
		t.Fatal("splice should fail the three-tuple test")
	}
	obs.AddASPath(topo.Path{100, 200, 300})
	if _, ok := Splice([]HopPath{src}, []HopPath{dst}, 0, obs); !ok {
		t.Fatal("splice should pass after observing the triple")
	}
}

func TestSpliceAvoidsAS(t *testing.T) {
	src := HopPath{hop(1, 100), hop(2, 200)}
	dst := HopPath{hop(2, 200), hop(3, 300)}
	obs := NewObserved()
	obs.AddASPath(topo.Path{100, 200, 300})
	if _, ok := Splice([]HopPath{src}, []HopPath{dst}, 300, obs); ok {
		t.Fatal("splice must avoid AS 300")
	}
	if _, ok := Splice([]HopPath{src}, []HopPath{dst}, 200, obs); ok {
		t.Fatal("splice must avoid AS 200 (on-path)")
	}
}

func TestSpliceNoSharedRouter(t *testing.T) {
	src := HopPath{hop(1, 100), hop(2, 200)}
	dst := HopPath{hop(7, 200), hop(3, 300)} // same AS, different router
	obs := NewObserved()
	obs.AddASPath(topo.Path{100, 200, 300})
	if _, ok := Splice([]HopPath{src}, []HopPath{dst}, 0, obs); ok {
		t.Fatal("paths intersect at AS but not router: §2.2 requires shared IP")
	}
}

func TestSpliceAtSourceUsesPairCheck(t *testing.T) {
	// Splice at the very first hop: no "before" AS exists.
	src := HopPath{hop(2, 200)}
	dst := HopPath{hop(2, 200), hop(3, 300)}
	obs := NewObserved()
	if _, ok := Splice([]HopPath{src}, []HopPath{dst}, 0, obs); ok {
		t.Fatal("pair not observed yet")
	}
	obs.AddASPath(topo.Path{200, 300})
	if _, ok := Splice([]HopPath{src}, []HopPath{dst}, 0, obs); !ok {
		t.Fatal("pair observed; splice should succeed")
	}
}

func TestSpliceSkipsStars(t *testing.T) {
	star := probe.Hop{Star: true}
	src := HopPath{hop(1, 100), star, hop(2, 200)}
	dst := HopPath{hop(2, 200), hop(3, 300)}
	obs := NewObserved()
	obs.AddASPath(topo.Path{100, 200, 300})
	if _, ok := Splice([]HopPath{src}, []HopPath{dst}, 0, obs); !ok {
		t.Fatal("stars should not block splicing")
	}
}

func TestObservedIndexing(t *testing.T) {
	obs := NewObserved()
	obs.AddASPath(topo.Path{1, 2, 3, 4})
	if !obs.HasTriple(1, 2, 3) || !obs.HasTriple(2, 3, 4) {
		t.Fatal("triples missing")
	}
	if obs.HasTriple(1, 3, 4) {
		t.Fatal("false triple")
	}
	if !obs.HasPair(3, 4) || obs.HasPair(4, 3) {
		t.Fatal("pairs are directional")
	}
}

// TestCanReachMatchesReach holds CanReach, which stops at src and builds no
// set, to the set it stands for: over random worlds and topogen ones,
// random origins and avoid sets (empty, one AS, several, the origin
// itself), for every AS and one the topology does not have, CanReach(src)
// is Reach(origin)[src].
func TestCanReachMatchesReach(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var worlds []*topo.Topology
	for range 20 {
		worlds = append(worlds, randTopo(t, rng, 5+rng.Intn(60)))
	}
	for seed := int64(1); seed <= 3; seed++ {
		gen, err := topogen.Generate(topogen.Config{Seed: seed, NumTransit: 10, NumStub: 40})
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, gen.Top)
	}
	for wi, top := range worlds {
		asns := top.ASNs()
		for k := range 12 {
			origin := asns[rng.Intn(len(asns))]
			avoid := map[topo.ASN]bool{}
			switch {
			case k%6 == 0:
				avoid[origin] = true
			case k%6 > 1:
				for range k % 6 {
					avoid[asns[rng.Intn(len(asns))]] = true
				}
			}
			reach := Reach(top, origin, avoid)
			for _, src := range append(asns[:len(asns):len(asns)], asns[len(asns)-1]+1) {
				if got, want := CanReach(top, src, origin, avoid), reach[src]; got != want {
					t.Fatalf("world %d, origin %d, avoid %v: CanReach(%d) = %v, Reach holds it: %v", wi, origin, avoid, src, got, want)
				}
			}
		}
	}
}
