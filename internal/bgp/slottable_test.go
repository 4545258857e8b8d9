package bgp

import (
	"net/netip"
	"slices"
	"testing"

	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// TestSessionSlotTable holds a speaker's id-major session-slot table
// (Speaker.rows, both adj-RIBs in one) through growth, a withdrawal, and
// sessions failing and returning. H has four sessions: provider P, peer Q
// and customers C1 and C2. It originates three prefixes, so every session
// advertises; then P originates a fourth, which H exports to its customers
// only; then C1 and C2 both originate a fifth, so H's row for it holds two
// offers. At every quiescent point each session's adj-RIB-out half must be
// exactly what exportTo would send (nothing on a down session), and its
// adj-RIB-in half exactly what the neighbor last advertised to H when import
// accepts it (nothing otherwise).
//
// The mutations this must fail under (testdata/mutants/, make mutants):
// receive writing
// slot ri+1; session down clearing only the adj-RIB-out half; decide
// skipping the row's last slot; offer taking the relationship from slot 0;
// growRows growing to the table size instead of size times sessions; row's
// stride one short of the session count; every adj-RIB-out record cleared
// when one session goes down; hasNews reading session i+1's record; a
// withdrawal not zeroing its record.
func TestSessionSlotTable(t *testing.T) {
	const P, Q, C1, C2, H = topo.ASN(1), topo.ASN(2), topo.ASN(3), topo.ASN(4), topo.ASN(10)
	b := topo.NewBuilder()
	for _, asn := range []topo.ASN{P, Q, C1, C2, H} {
		b.AddAS(asn, "")
	}
	b.Provider(H, P)
	b.Peer(H, Q)
	b.Provider(C1, H)
	b.Provider(C2, H)
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New(top, simclock.New(), Config{Seed: 5})
	h := e.Speaker(H)
	deg, q, c1 := len(h.out), h.nbrIndex(Q), h.nbrIndex(C1)
	pfx := []netip.Prefix{
		netip.MustParsePrefix("10.1.0.0/16"),
		netip.MustParsePrefix("10.2.0.0/16"),
		netip.MustParsePrefix("10.3.0.0/16"),
		netip.MustParsePrefix("10.4.0.0/16"),
		netip.MustParsePrefix("10.5.0.0/16"),
	}

	converge := func(step string) {
		t.Helper()
		if !e.Converge(MaxConvergeSteps) {
			t.Fatalf("%s: not quiescent", step)
		}
	}
	check := func(step string) {
		t.Helper()
		if want := e.prefixes.size() * deg; len(h.rows) != want {
			t.Fatalf("%s: table holds %d slots, want %d (%d ids × %d sessions)", step, len(h.rows), want, e.prefixes.size(), deg)
		}
		for id := prefixID(1); int(id) < e.prefixes.size(); id++ {
			for i := range h.out {
				var want pathID
				if ex, ok := h.exportTo(i, id); ok && !h.out[i].down {
					want = ex.pid
				}
				if got := h.advertised(i, id).pid; got != want {
					t.Fatalf("%s: AS%d's record for %v is path %d, want %d", step, h.neighbors[i], e.prefixes.pfx[id], got, want)
				}
				sent := h.peers[i].advertised(int(h.peerIdx[i]), id).pid
				if sent != 0 && !h.importOK(h.neighbors[i], e.arena.path(sent)) {
					sent = 0
				}
				sl := h.rows[int(id)*deg+i]
				if sl.in != sent {
					t.Fatalf("%s: offer from AS%d for %v is path %d, AS%d last sent %d", step, h.neighbors[i], e.prefixes.pfx[id], sl.in, h.neighbors[i], sent)
				}
				if want := len(e.arena.path(sent)); int(sl.plen) != want {
					t.Fatalf("%s: offer from AS%d for %v has length %d, want %d", step, h.neighbors[i], e.prefixes.pfx[id], sl.plen, want)
				}
			}
		}
	}
	exportable := func(i int) int {
		n := 0
		for id := prefixID(1); int(id) < e.prefixes.size(); id++ {
			if _, ok := h.exportTo(i, id); ok {
				n++
			}
		}
		return n
	}
	// column holds every slot to before, except session i's, which must be
	// empty in both halves.
	column := func(step string, before []slot, i int) {
		t.Helper()
		for k := range h.rows {
			want := before[k]
			if k%deg == i {
				want = slot{}
			}
			if h.rows[k] != want {
				t.Fatalf("%s: AS%d's slot for id %d is %+v, want %+v", step, h.neighbors[k%deg], k/deg, h.rows[k], want)
			}
		}
	}

	for _, p := range pfx[:3] {
		e.Originate(H, p)
	}
	converge("three origins")
	check("three origins")
	for k := deg; k < len(h.rows); k++ { // row 0 is id 0, never interned
		if h.rows[k].adv.pid == 0 {
			t.Fatalf("session to AS%d advertised nothing for id %d", h.neighbors[k%deg], k/deg)
		}
	}

	// A fourth prefix, first advertised by H after the others and first
	// offered to it by P: the table grows by whole rows and every earlier
	// slot stays where it was.
	before := slices.Clone(h.rows)
	e.Originate(P, pfx[3])
	converge("fourth prefix from the provider")
	check("fourth prefix from the provider")
	if !slices.Equal(h.rows[:len(before)], before) {
		t.Fatalf("growth moved slots: %v, was %v", h.rows[:len(before)], before)
	}

	// A fifth, offered by both customers: two filled slots in one row, and
	// the lower ASN wins the tie.
	e.Originate(C1, pfx[4])
	e.Originate(C2, pfx[4])
	converge("fifth prefix from both customers")
	check("fifth prefix from both customers")
	id5, _ := e.prefixes.lookup(pfx[4])
	if r, ok := h.Best(pfx[4]); !ok || r.From != C1 || len(h.AdjIn(pfx[4])) != 2 {
		t.Fatalf("fifth prefix: best %v, %d offers; want C1's of two", r, len(h.AdjIn(pfx[4])))
	}

	e.Withdraw(H, pfx[2])
	converge("withdrawal")
	check("withdrawal")

	// Q's session fails: only its column clears, and no other session has
	// anything to send.
	before = slices.Clone(h.rows)
	sent := e.UpdatesSentBy(H)
	e.SetAdjacencyDown(H, Q, true)
	column("Q down", before, q)
	converge("Q down")
	check("Q down")
	if got := e.UpdatesSentBy(H); got != sent {
		t.Fatalf("Q down: H sent %d updates, want none", got-sent)
	}

	// Q's session returns: exactly the table H may export to Q goes to it.
	sent = e.UpdatesSentBy(H)
	e.SetAdjacencyDown(H, Q, false)
	converge("Q up")
	check("Q up")
	if got, want := e.UpdatesSentBy(H)-sent, exportable(q); got != want || want != 3 {
		t.Fatalf("Q up: H sent %d updates, want the %d prefixes it may export to Q (3)", got, want)
	}

	// C1's session fails: its column clears in both halves at once, and H
	// falls back to C2's offer for the fifth prefix.
	before = slices.Clone(h.rows)
	if before[int(id5)*deg+c1].in == 0 {
		t.Fatal("C1 offers nothing for the fifth prefix")
	}
	e.SetAdjacencyDown(H, C1, true)
	column("C1 down", before, c1)
	converge("C1 down")
	check("C1 down")
	if r, ok := h.Best(pfx[4]); !ok || r.From != C2 {
		t.Fatalf("C1 down: best for the fifth prefix is %v, want C2's", r)
	}

	// C1's session returns: H re-sends it the table and C1 its offer.
	sent = e.UpdatesSentBy(H)
	e.SetAdjacencyDown(H, C1, false)
	converge("C1 up")
	check("C1 up")
	if e.UpdatesSentBy(H) == sent {
		t.Fatal("C1 up: H re-sent nothing")
	}
	if r, ok := h.Best(pfx[4]); !ok || r.From != C1 {
		t.Fatalf("C1 up: best for the fifth prefix is %v, want C1's", r)
	}
}
