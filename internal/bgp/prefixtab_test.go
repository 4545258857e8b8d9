package bgp

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"lifeguard/internal/topo"
)

// sortPrefixes is the reference order the map-keyed engine sorted every
// collected prefix slice into: address, then length.
func sortPrefixes(ps []netip.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Addr() != ps[j].Addr() {
			return ps[i].Addr().Less(ps[j].Addr())
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}

// TestSortByRankMatchesPrefixOrder is the property the byte-identical
// schedule rests on: whatever order prefixes were interned in — including
// prefixes interned after ids were already sorted once, which renumbers
// ranks — sorting ids by rank visits prefixes in sortPrefixes order.
func TestSortByRankMatchesPrefixOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	randPrefix := func() netip.Prefix {
		// A narrow address range makes equal addresses at different
		// lengths (the tie the order breaks on bits) common.
		bits := 8 + rng.Intn(25)
		addr := netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(4) << 6), 0})
		return netip.PrefixFrom(addr, bits).Masked()
	}
	for round := 0; round < 50; round++ {
		tab := newPrefixTable()
		check := func() {
			t.Helper()
			ids := make([]prefixID, 0, tab.size())
			for id := 1; id < tab.size(); id++ {
				ids = append(ids, prefixID(id))
			}
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			ids = ids[:len(ids)-rng.Intn(len(ids)/2+1)]
			want := make([]netip.Prefix, len(ids))
			for i, id := range ids {
				want[i] = tab.pfx[id]
			}
			sortPrefixes(want)
			tab.sortByRank(ids)
			for i, id := range ids {
				if tab.pfx[id] != want[i] {
					t.Fatalf("round %d: position %d is %v, sortPrefixes says %v", round, i, tab.pfx[id], want[i])
				}
			}
			for r, id := range tab.order {
				if int(tab.rank[id]) != r {
					t.Fatalf("round %d: rank[%d] = %d but order[%d] holds it", round, id, tab.rank[id], r)
				}
			}
		}
		for batch := 0; batch < 3; batch++ {
			for i := 0; i < 1+rng.Intn(40); i++ {
				p := randPrefix()
				id := tab.intern(p)
				if again := tab.intern(p); again != id || tab.pfx[id] != p {
					t.Fatalf("intern(%v) = %d then %d (slot holds %v)", p, id, again, tab.pfx[id])
				}
			}
			check() // later batches intern after this sort
		}
	}
}

// TestDownSessionDropsPendingMarks is the regression for the stale-mark bug:
// prefixes marked pending toward a session that is down are dropped when its
// timer fires, and their dedupe marks must go with them — a mark left behind
// swallows the full-table re-advertisement when the session returns.
func TestDownSessionDropsPendingMarks(t *testing.T) {
	e, _ := newEngine(t, diamond(t))
	prefixes := []netip.Prefix{topo.ProductionPrefix(1), topo.SentinelPrefix(1), topo.Block(1)}
	for _, p := range prefixes {
		e.Originate(1, p)
	}
	converge(t, e)

	e.SetAdjacencyDown(2, 4, true)
	converge(t, e)
	// Route changes at AS2 while the session is down queue every prefix
	// toward AS4 anyway; the flush on the dead session discards them.
	for _, p := range prefixes {
		e.Announce(1, p, OriginConfig{Pattern: topo.Path{1, 1, 1}})
	}
	converge(t, e)

	e.SetAdjacencyDown(2, 4, false)
	converge(t, e)
	for _, p := range prefixes {
		if _, ok := e.Speaker(4).AdjIn(p)[2]; !ok {
			t.Errorf("AS2 did not re-advertise %v to AS4 after the session returned", p)
		}
	}
}

// TestInjectedUpdateSharesInternedSlot: an update a test injects, with the
// id Engine.intern gave its prefix, lands in the slot flush-built updates for
// the same prefix use — in both orders: injected onto an announced prefix,
// and announced after injection.
func TestInjectedUpdateSharesInternedSlot(t *testing.T) {
	e, _ := newEngine(t, lineTopo(t))
	p := topo.ProductionPrefix(1)
	e.Originate(1, p)
	converge(t, e)
	s2 := e.Speaker(2)
	size := e.prefixes.size()

	s2.receive(s2.nbrIndex(1), update{id: s2.e.intern(p), path: topo.Path{1, 1, 1}})
	if got := e.prefixes.size(); got != size {
		t.Fatalf("injected update for a known prefix grew the table: %d -> %d", size, got)
	}
	in := s2.AdjIn(p)
	if len(in) != 1 || !in[1].Path.Equal(topo.Path{1, 1, 1}) {
		t.Fatalf("injected update did not replace AS1's offer: %v", in)
	}

	q := topo.SentinelPrefix(1)
	s2.receive(s2.nbrIndex(1), update{id: s2.e.intern(q), path: topo.Path{1}})
	id, ok := e.prefixes.lookup(q)
	if !ok {
		t.Fatal("injected update for a new prefix was not interned")
	}
	if r := s2.route(id); r == nil || r.Prefix != q {
		t.Fatalf("injected route not selected in its slot: %v", r)
	}
	e.Originate(1, q)
	converge(t, e)
	if again, _ := e.prefixes.lookup(q); again != id {
		t.Fatalf("Announce re-interned %v: id %d -> %d", q, id, again)
	}
	if in := s2.AdjIn(q); len(in) != 1 {
		t.Fatalf("announced and injected routes landed in different slots: %v", in)
	}
}
