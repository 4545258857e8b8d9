package topogen

import (
	"fmt"
	"math/rand"

	"lifeguard/internal/topo"
)

// Large-mode generation. The default generator is fine at a few hundred
// ASes but its hot loop is O(pool) per attachment (pickWeighted walks the
// candidate slice) and O(T²) rng draws for transit peering — at 10k+ ASes
// that is minutes of generation before the first BGP update flows. Large
// mode keeps the same shape model (Tier-1 clique, preferential-attachment
// transit hierarchy, multihomed stub fringe) but lays the graph out over
// flat arrays indexed by the contiguous ASN space:
//
//   - attachment weights (degree+1) live in a Fenwick tree, so a weighted
//     pick with exclusions is O(log n) instead of O(n), with no per-AS maps
//     touched in the loop;
//   - transit peering draws the *number* of peer edges from the binomial's
//     expectation and then samples pairs uniformly, replacing the O(T²)
//     per-pair coin flips with O(E) draws.
//
// The sampling order differs from the default generator, so Large and
// non-Large runs of one seed give different graphs; each mode is
// individually byte-deterministic (Large is an explicit Config field, so
// the same config always reproduces the same topology).

// fenwick is a Fenwick (binary indexed) tree over non-negative integer
// weights, supporting point updates, total-sum queries, and weighted
// selection in O(log n).
type fenwick struct {
	n    int
	tree []int // 1-based partial sums
	w    []int // current per-slot weights, for O(1) reads
}

func newFenwick(n int) *fenwick {
	return &fenwick{n: n, tree: make([]int, n+1), w: make([]int, n)}
}

// add applies a (possibly negative) delta to slot i's weight.
func (f *fenwick) add(i, delta int) {
	f.w[i] += delta
	for j := i + 1; j <= f.n; j += j & (-j) {
		f.tree[j] += delta
	}
}

// weight reads slot i's current weight.
func (f *fenwick) weight(i int) int { return f.w[i] }

// total returns the sum of all weights.
func (f *fenwick) total() int {
	s := 0
	for j := f.n; j > 0; j -= j & (-j) {
		s += f.tree[j]
	}
	return s
}

// find returns the slot holding the x-th unit of weight (0 <= x < total):
// the smallest i with prefix_sum(0..i) > x.
func (f *fenwick) find(x int) int {
	idx := 0
	bit := 1
	for bit<<1 <= f.n {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		if next := idx + bit; next <= f.n && f.tree[next] <= x {
			idx = next
			x -= f.tree[next]
		}
	}
	return idx // 0-based slot
}

// largeGen carries the flat-array state of one large-mode run. Slot i of
// the Fenwick tree is AS i+1 (the generator allocates ASNs contiguously),
// covering the Tier-1 + transit provider pool; stubs never join a pool.
type largeGen struct {
	b   *topo.Builder
	rng *rand.Rand
	fw  *fenwick
}

// pick draws a provider slot proportionally to weight, with up to two slots
// excluded (slot < 0 means no exclusion). Exclusions are realized by
// temporarily zeroing the slot's weight; -1 is returned when no weight
// remains — the caller must treat that as "no candidate", never as a slot.
func (g *largeGen) pick(ex1, ex2 int) int {
	var w1, w2 int
	if ex1 >= 0 {
		if w1 = g.fw.weight(ex1); w1 > 0 {
			g.fw.add(ex1, -w1)
		}
	}
	if ex2 >= 0 {
		if w2 = g.fw.weight(ex2); w2 > 0 {
			g.fw.add(ex2, -w2)
		}
	}
	slot := -1
	if total := g.fw.total(); total > 0 {
		slot = g.fw.find(g.rng.Intn(total))
	}
	if w2 > 0 {
		g.fw.add(ex2, w2)
	}
	if w1 > 0 {
		g.fw.add(ex1, w1)
	}
	return slot
}

// attach gives child one provider (and with probability extraProb a second
// distinct one) from the current pool, mirroring the default generator's
// attach but in O(log n).
func (g *largeGen) attach(child topo.ASN, extraProb float64) (deg int, err error) {
	s1 := g.pick(-1, -1)
	if s1 < 0 {
		return 0, fmt.Errorf("topogen: no provider candidate for AS %d (empty provider pool)", child)
	}
	p1 := topo.ASN(s1 + 1)
	g.b.Provider(child, p1)
	g.b.ConnectAS(child, p1)
	g.fw.add(s1, 1)
	deg = 1
	if g.rng.Float64() < extraProb {
		if s2 := g.pick(s1, -1); s2 >= 0 {
			p2 := topo.ASN(s2 + 1)
			g.b.Provider(child, p2)
			g.b.ConnectAS(child, p2)
			g.fw.add(s2, 1)
			deg = 2
		}
	}
	return deg, nil
}

// largeSynth is synth's flat-array twin for Config.Large. cfg must already
// have defaults applied and been validated by synth.
func largeSynth(cfg Config) (*topo.Builder, *Result, *rand.Rand, topo.ASN, error) {
	g := &largeGen{
		b:   topo.NewBuilder(),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		fw:  newFenwick(maxInt(cfg.NumTier1, 0) + maxInt(cfg.NumTransit, 0)),
	}
	res := &Result{}

	next := topo.ASN(1)
	newAS := func(name string, tier int) topo.ASN {
		asn := next
		next++
		as := g.b.AddAS(asn, fmt.Sprintf("%s%d", name, asn))
		as.Tier = tier
		g.b.AddRouter(asn, "") // hub
		return asn
	}

	// Tier-1 clique: every member starts at degree NumTier1-1, weight
	// degree+1.
	for i := 0; i < cfg.NumTier1; i++ {
		res.Tier1s = append(res.Tier1s, newAS("T1-", 1))
	}
	for i := 0; i < len(res.Tier1s); i++ {
		for j := i + 1; j < len(res.Tier1s); j++ {
			g.b.Peer(res.Tier1s[i], res.Tier1s[j])
			g.b.ConnectAS(res.Tier1s[i], res.Tier1s[j])
		}
	}
	for _, t := range res.Tier1s {
		g.fw.add(int(t)-1, cfg.NumTier1)
	}

	// Transit tier: each new transit attaches to the pool of Tier-1s and
	// earlier transits (their slots carry weight; its own slot is still 0),
	// then joins the pool at weight degree+1.
	for i := 0; i < cfg.NumTransit; i++ {
		asn := newAS("TR-", 2)
		deg, err := g.attach(asn, cfg.TransitExtraProviderProb)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		g.fw.add(int(asn)-1, deg+1)
		res.Transit = append(res.Transit, asn)
	}

	// Peering among transits: draw the edge count from the binomial's
	// expectation (floor + fractional coin), then sample pairs uniformly.
	// A draw that lands on an already-related pair is skipped but still
	// consumes its attempt, bounding the loop at exactly `count` draws.
	if t := len(res.Transit); t >= 2 && cfg.TransitPeerProb > 0 {
		expected := cfg.TransitPeerProb * float64(t) * float64(t-1) / 2
		count := int(expected)
		if g.rng.Float64() < expected-float64(count) {
			count++
		}
		for k := 0; k < count; k++ {
			i := g.rng.Intn(t)
			j := g.rng.Intn(t - 1)
			if j >= i {
				j++
			}
			a, c := res.Transit[i], res.Transit[j]
			if g.b.Related(a, c) {
				continue
			}
			g.b.Peer(a, c)
			g.b.ConnectAS(a, c)
			g.fw.add(int(a)-1, 1)
			g.fw.add(int(c)-1, 1)
		}
	}

	// Stub fringe: the pool is every Tier-1 and transit (the whole tree).
	// Stub degrees never weight anything, so they are not tracked.
	for i := 0; i < cfg.NumStub; i++ {
		asn := newAS("ST-", 3)
		if _, err := g.attach(asn, cfg.StubMultihomeProb); err != nil {
			return nil, nil, nil, 0, err
		}
		res.Stubs = append(res.Stubs, asn)
	}

	return g.b, res, g.rng, next, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
