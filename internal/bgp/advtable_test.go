package bgp

import (
	"net/netip"
	"slices"
	"testing"

	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// TestAdjRIBOutTable holds a speaker's id-major adj-RIB-out (Speaker.adv)
// through growth, a withdrawal, and a session failing and returning. H has
// four sessions: provider P, peer Q and customers C1 and C2. It originates
// three prefixes, so every session advertises; then P originates a fourth,
// which H exports to its customers only. At every quiescent point each up
// session's record must be exactly what exportTo would send and a down
// session's must be empty.
//
// The mutations this must fail under, and did (CHANGES.md): the row stride
// the table size instead of the session count; every record cleared when
// one session goes down; growth to the table size instead of size times
// sessions; hasNews reading session i+1's record; a withdrawal not zeroing
// its record.
func TestAdjRIBOutTable(t *testing.T) {
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
	deg, q := len(h.out), h.nbrIndex(Q)
	pfx := []netip.Prefix{
		netip.MustParsePrefix("10.1.0.0/16"),
		netip.MustParsePrefix("10.2.0.0/16"),
		netip.MustParsePrefix("10.3.0.0/16"),
		netip.MustParsePrefix("10.4.0.0/16"),
	}

	converge := func(step string) {
		t.Helper()
		if !e.Converge(MaxConvergeSteps) {
			t.Fatalf("%s: not quiescent", step)
		}
	}
	check := func(step string) {
		t.Helper()
		for id := prefixID(1); int(id) < e.prefixes.size(); id++ {
			for i := range h.out {
				var want pathID
				if ex, ok := h.exportTo(i, id); ok && !h.out[i].down {
					want = ex.pid
				}
				if got := h.advertised(i, id).pid; got != want {
					t.Fatalf("%s: AS%d's record for %v is path %d, want %d", step, h.neighbors[i], e.prefixes.pfx[id], got, want)
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

	for _, p := range pfx[:3] {
		e.Originate(H, p)
	}
	converge("three origins")
	check("three origins")
	if want := e.prefixes.size() * deg; len(h.adv) != want {
		t.Fatalf("table holds %d records, want %d (%d ids × %d sessions)", len(h.adv), want, e.prefixes.size(), deg)
	}
	for k := deg; k < len(h.adv); k++ { // row 0 is id 0, never interned
		if h.adv[k].pid == 0 {
			t.Fatalf("session to AS%d advertised nothing for id %d", h.neighbors[k%deg], k/deg)
		}
	}

	// A fourth prefix, first advertised by H after the others: the table
	// grows by whole rows and every earlier record stays where it was.
	before := slices.Clone(h.adv)
	e.Originate(P, pfx[3])
	converge("fourth prefix from the provider")
	check("fourth prefix from the provider")
	if want := e.prefixes.size() * deg; len(h.adv) != want {
		t.Fatalf("after growth the table holds %d records, want %d", len(h.adv), want)
	}
	if !slices.Equal(h.adv[:len(before)], before) {
		t.Fatalf("growth moved records: %v, was %v", h.adv[:len(before)], before)
	}

	e.Withdraw(H, pfx[2])
	converge("withdrawal")
	check("withdrawal")

	// Q's session fails: only its column clears, and no other session has
	// anything to send.
	before = slices.Clone(h.adv)
	sent := e.UpdatesSentBy(H)
	e.SetAdjacencyDown(H, Q, true)
	for k := range h.adv {
		want := before[k]
		if k%deg == q {
			want = advRecord{}
		}
		if h.adv[k] != want {
			t.Fatalf("session down: AS%d's record for id %d is %v, want %v", h.neighbors[k%deg], k/deg, h.adv[k], want)
		}
	}
	converge("session down")
	check("session down")
	if got := e.UpdatesSentBy(H); got != sent {
		t.Fatalf("session down: H sent %d updates, want none", got-sent)
	}

	// Q's session returns: exactly the table H may export to Q goes to it.
	sent = e.UpdatesSentBy(H)
	e.SetAdjacencyDown(H, Q, false)
	converge("session up")
	check("session up")
	if got, want := e.UpdatesSentBy(H)-sent, exportable(q); got != want || want != 2 {
		t.Fatalf("session up: H sent %d updates, want the %d prefixes it may export to Q (2)", got, want)
	}
}
