package bgp

import (
	"math/rand"
	"net/netip"
	"testing"

	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// bruteLookup is the oracle for Engine.Lookup: a linear longest-match scan
// over the loc-RIB slice that never looks at the trie. The scan keeps the
// strictly longest containing prefix, so id order cannot influence the
// result.
func bruteLookup(s *Speaker, addr netip.Addr) *Route {
	a := addr.Unmap()
	if !a.Is4() {
		return nil
	}
	var bestLen = -1
	var win prefixID
	for id := range s.best {
		p := s.e.prefixes.pfx[id]
		if s.best[id].kind != locNone && p.Contains(a) && p.Bits() > bestLen {
			bestLen, win = p.Bits(), prefixID(id)
		}
	}
	return s.route(win)
}

// addrInside returns a random address covered by p.
func addrInside(p netip.Prefix, rng *rand.Rand) netip.Addr {
	key, _ := v4Key(p.Addr())
	if p.Bits() < 32 {
		key |= rng.Uint32() >> p.Bits()
	}
	return netip.AddrFrom4([4]byte{byte(key >> 24), byte(key >> 16), byte(key >> 8), byte(key)})
}

// TestLPMMatchesBruteForce is a quick-check-style invariant test: under
// seeded randomized origin churn (plain announcements, poisoned patterns,
// withdrawals) over a generated internetwork, Lookup at every speaker must
// agree with a brute-force longest-match over its loc-RIB for both covered
// and uncovered addresses. This is the safety net for reading one
// engine-wide trie through each speaker's own slots: a match kept for a
// prefix the speaker has no route for, or a routed one passed over, shows
// up here.
func TestLPMMatchesBruteForce(t *testing.T) {
	res, err := topogen.Generate(topogen.Config{Seed: 11, NumTier1: 3, NumTransit: 8, NumStub: 10})
	if err != nil {
		t.Fatal(err)
	}
	e := New(res.Top, simclock.New(), Config{Seed: 11})
	rng := rand.New(rand.NewSource(2439))
	all := res.AllASNs()

	// Candidate (origin, prefix) pairs spanning the full length range,
	// including the /8 and shorter prefixes the pre-LPM lookup missed and
	// a default route. Overlaps across origins are deliberate.
	type cand struct {
		asn    topo.ASN
		prefix netip.Prefix
	}
	var cands []cand
	origins := res.Stubs[:4]
	for _, asn := range origins {
		block := topo.Block(asn)
		host := netip.PrefixFrom(topo.ProductionPrefix(asn).Addr(), 32)
		cands = append(cands,
			cand{asn, block},
			cand{asn, topo.ProductionPrefix(asn)},
			cand{asn, topo.SentinelPrefix(asn)},
			cand{asn, netip.PrefixFrom(block.Addr(), 8).Masked()},
			cand{asn, netip.PrefixFrom(block.Addr(), 6).Masked()},
			cand{asn, host},
		)
	}
	cands = append(cands, cand{origins[0], netip.MustParsePrefix("0.0.0.0/0")})

	check := func(round int) {
		for _, viewer := range all {
			s := e.Speaker(viewer)
			probe := func(addr netip.Addr) {
				want := bruteLookup(s, addr)
				got, ok := e.Lookup(viewer, addr)
				if ok != (want != nil) || got != want {
					t.Fatalf("round %d: AS%d Lookup(%v) = %v, %v; brute force says %v",
						round, viewer, addr, got, ok, want)
				}
			}
			for _, c := range cands {
				probe(c.prefix.Addr())
				probe(addrInside(c.prefix, rng))
			}
			for i := 0; i < 8; i++ {
				u := rng.Uint32()
				probe(netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}))
			}
		}
	}

	const rounds = 60
	for i := 0; i < rounds; i++ {
		c := cands[rng.Intn(len(cands))]
		switch rng.Intn(4) {
		case 0, 1:
			e.Announce(c.asn, c.prefix, OriginConfig{})
		case 2:
			victim := all[rng.Intn(len(all))]
			e.Announce(c.asn, c.prefix, OriginConfig{Pattern: topo.Path{c.asn, victim, c.asn}})
		default:
			e.Withdraw(c.asn, c.prefix)
		}
		if !e.Converge(50_000_000) {
			t.Fatalf("round %d: no convergence", i)
		}
		if i%5 == 4 || i == rounds-1 {
			check(i)
		}
	}
}
