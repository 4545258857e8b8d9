package refsolve

import (
	"fmt"
	"math/rand"
	"testing"

	"lifeguard/internal/splice"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// iterate is the stable state by synchronous rounds, the reference Solve is
// held to: in each round every AS decides from its neighbors' previous
// choices. Customer routes settle within the hierarchy's depth in rounds,
// peer routes one round later, provider routes within the depth again, and
// one more round finds nothing to change, so it gives up after 2n+2 rounds
// on n ASes.
func iterate(top *topo.Topology, down map[topo.ASPair]bool, origins map[topo.ASN]Origin) ([]*Route, error) {
	best := make([]*Route, top.NumASes())
	rounds := 2*top.NumASes() + 2
	for round := 0; round < rounds; round++ {
		next := make([]*Route, len(best))
		changed := false
		for i, asn := range top.ASNs() {
			next[i] = Decide(top, down, origins, asn, best)
			changed = changed || !next[i].Equal(best[i])
		}
		if !changed {
			return best, nil
		}
		best = next
	}
	return nil, fmt.Errorf("no fixed point after %d rounds on %d ASes", rounds, top.NumASes())
}

// randTree builds a provider tree with a second provider here and there and
// random peering, at AS level. intn draws the shape; with permute the ASNs
// are shuffled, so that ascending ASN order is not the hierarchy's.
func randTree(t testing.TB, intn func(int) int, n int, permute bool) *topo.Topology {
	t.Helper()
	asn := make([]topo.ASN, n) // asn[i] buys transit from ASes before it
	for i := range asn {
		asn[i] = topo.ASN(i + 1)
	}
	if permute {
		for i := n - 1; i > 0; i-- {
			j := intn(i + 1)
			asn[i], asn[j] = asn[j], asn[i]
		}
	}
	b := topo.NewBuilder()
	for _, a := range asn {
		b.AddAS(a, "")
	}
	for i := 1; i < n; i++ {
		b.Provider(asn[i], asn[intn(i)])
		if p := asn[intn(i)]; intn(3) == 0 && !b.Related(asn[i], p) {
			b.Provider(asn[i], p)
		}
	}
	for k := 0; k < n/2; k++ {
		if a, c := asn[intn(n)], asn[intn(n)]; a != c && !b.Related(a, c) {
			b.Peer(a, c)
		}
	}
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// quirks sets the §7.1 import policies on the ASes with customers, in turn:
// every other one drops customer routes that cross one of its peers, and
// the rest accept their own ASN once or any number of times.
func quirks(top *topo.Topology) {
	i := 0
	for _, asn := range top.ASNs() {
		if len(top.Customers(asn)) == 0 {
			continue
		}
		switch as := top.AS(asn); i % 4 {
		case 0, 2:
			as.FilterPeersFromCustomers = true
		case 1:
			as.MaxOwnASOccurs = 2
		case 3:
			as.MaxOwnASOccurs = 0
		}
		i++
	}
}

// scenario draws one prefix's inputs on top: an origin announcing plainly,
// prepended (O-O-O), poisoning an AS (O-A-O), withholding from a neighbor,
// or to one neighbor only poisoned or prepended seven times; sometimes a
// second origin; and up to two sessions down.
func scenario(top *topo.Topology, intn func(int) int) (map[topo.ASPair]bool, map[topo.ASN]Origin) {
	asns := top.ASNs()
	pick := func() topo.ASN { return asns[intn(len(asns))] }
	nb := func(asn topo.ASN) topo.ASN { // asn itself if it has no neighbor
		if nbs := top.Neighbors(asn); len(nbs) > 0 {
			return nbs[intn(len(nbs))]
		}
		return asn
	}
	o := pick()
	var cfg Origin
	switch intn(6) {
	case 1:
		cfg.Pattern = topo.Path{o, o, o}
	case 2:
		cfg.Pattern = topo.Path{o, pick(), o}
	case 3:
		cfg.Withhold = map[topo.ASN]bool{nb(o): true}
	case 4:
		cfg.PerNeighbor = map[topo.ASN]topo.Path{nb(o): {o, pick(), o}}
	case 5:
		cfg.PerNeighbor = map[topo.ASN]topo.Path{nb(o): {o, o, o, o, o, o, o}}
	}
	origins := map[topo.ASN]Origin{o: cfg}
	if intn(3) == 0 {
		origins[pick()] = Origin{}
	}
	down := map[topo.ASPair]bool{}
	for k := intn(3); k > 0; k-- {
		if a := pick(); len(top.Neighbors(a)) > 0 {
			down[topo.MakeASPair(a, nb(a))] = true
		}
	}
	return down, origins
}

// matchIteration fails t unless Solve gives every AS of top iterate's route.
func matchIteration(t testing.TB, name string, top *topo.Topology, down map[topo.ASPair]bool, origins map[topo.ASN]Origin) {
	t.Helper()
	want, err := iterate(top, down, origins)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := Solve(top, down, origins)
	for i, asn := range top.ASNs() {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s (origins %v, down %v): AS%d: Solve %+v, iteration %+v", name, origins, down, asn, got[i], want[i])
		}
	}
}

// TestSolveMatchesIteration holds Solve to iterate on random trees with
// peering, shuffled ASNs on three in four and the quirks on every other, and
// on topogen worlds of 200 and 1k ASes. The mutations this must fail under
// (testdata/mutants/ here and in internal/topo, make mutants): either sweep dropped; both sweeps bottom up; both
// top down; Hierarchy returning ASNs; Decide building each offer over the
// winner's path.
func TestSolveMatchesIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 40; trial++ {
		top := randTree(t, rng.Intn, 8+rng.Intn(33), trial%4 != 0)
		if trial%2 == 1 {
			quirks(top)
		}
		for k := 0; k < 25; k++ {
			down, origins := scenario(top, rng.Intn)
			matchIteration(t, fmt.Sprintf("random %d/%d", trial, k), top, down, origins)
		}
	}
	for _, g := range []struct {
		name   string
		cfg    topogen.Config
		quirks bool
	}{
		{"topogen 200", topogen.Config{Seed: 3, NumTransit: 45}, false},
		{"topogen 200, quirks", topogen.Config{Seed: 3, NumTransit: 45}, true},
		{"topogen 1k", topogen.Config{Seed: 1, NumTransit: 200, NumStub: 795}, false},
		{"topogen 1k Large", topogen.Config{Seed: 1, NumTransit: 200, NumStub: 795, Large: true}, false},
	} {
		gen, err := topogen.Generate(g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g.quirks {
			quirks(gen.Top)
		}
		for k := 0; k < 6; k++ {
			down, origins := scenario(gen.Top, rng.Intn)
			matchIteration(t, fmt.Sprintf("%s/%d", g.name, k), gen.Top, down, origins)
		}
	}
}

// FuzzSolve hands the worlds and inputs to the fuzzer: the input draws a
// shuffled random tree of 2 to 41 ASes, the quirks or not, and up to eight
// prefixes' inputs; a byte past the end draws 0.
func FuzzSolve(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		data := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		intn := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		top := randTree(t, intn, 2+intn(40), true)
		if intn(2) == 0 {
			quirks(top)
		}
		for k := 0; k < 8 && len(data) > 0; k++ {
			down, origins := scenario(top, intn)
			matchIteration(t, fmt.Sprintf("prefix %d", k), top, down, origins)
		}
	})
}

// solveWorlds are the topogen worlds of 200, 1k and 10k ASes that
// BenchmarkSolve and TestSolveAllocations solve on.
var solveWorlds = []struct {
	name string
	cfg  topogen.Config
}{
	{"ases=200", topogen.Config{Seed: 3, NumTransit: 45}},
	{"ases=1k", topogen.Config{Seed: 1, NumTransit: 200, NumStub: 795}},
	{"ases=10k", topogen.Config{Seed: 1, NumTransit: 2000, NumStub: 8000, Large: true}},
}

// TestSolveAllocations holds one Solve to at most 2.2 objects per AS with a
// route, on the 200- and 1k-AS worlds: each route and its path, and the
// result slice. Decide allocates nothing for an offer it discards.
func TestSolveAllocations(t *testing.T) {
	const ceiling = 2.2
	for _, w := range solveWorlds[:2] {
		gen, err := topogen.Generate(w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		origins := map[topo.ASN]Origin{gen.Stubs[0]: {}}
		routed := 0
		for _, r := range Solve(gen.Top, nil, origins) {
			if r != nil {
				routed++
			}
		}
		objects := testing.AllocsPerRun(5, func() { Solve(gen.Top, nil, origins) })
		if per := objects / float64(routed); per > ceiling {
			t.Errorf("%s: %.0f objects for %d ASes with a route = %.2f per AS, want <= %.2f", w.name, objects, routed, per, ceiling)
		} else {
			t.Logf("%s: %.0f objects for %d ASes with a route = %.2f per AS", w.name, objects, routed, per)
		}
	}
}

// BenchmarkSolve solves one stub's prefix at a time on solveWorlds (the 10k
// one without -short), beside splice.Reach from the same stub: the
// reachability the experiments ask of the same graph.
func BenchmarkSolve(b *testing.B) {
	for _, w := range solveWorlds {
		b.Run(w.name, func(b *testing.B) {
			if w.cfg.Large && testing.Short() {
				b.Skip("about a second per run")
			}
			gen, err := topogen.Generate(w.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Run("Solve", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Solve(gen.Top, nil, map[topo.ASN]Origin{gen.Stubs[i%len(gen.Stubs)]: {}})
				}
			})
			b.Run("splice.Reach", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					splice.Reach(gen.Top, gen.Stubs[i%len(gen.Stubs)], nil)
				}
			})
		})
	}
}
