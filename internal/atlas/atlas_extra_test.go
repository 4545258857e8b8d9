package atlas

import (
	"net/netip"
	"slices"
	"testing"

	"lifeguard/internal/nettest"
	"lifeguard/internal/topo"
)

func TestVPsAndTargetsAccessors(t *testing.T) {
	n, a := setup(t)
	if got := a.VPs(); len(got) != 1 || got[0] != n.Hub(nettest.VP1AS) {
		t.Fatalf("VPs = %v", got)
	}
	if got := a.Targets(); len(got) != 1 {
		t.Fatalf("Targets = %v", got)
	}
}

func TestTargetRouterResolution(t *testing.T) {
	n, a := setup(t)
	// Router address resolves to that router.
	r3 := n.Hub(nettest.TransitB)
	if got, ok := a.top.RouterFor(n.Top.Router(r3).Addr); !ok || got != r3 {
		t.Fatalf("RouterFor(router addr) = %v, %v", got, ok)
	}
	// Prefix-hosted address resolves to the owner's hub.
	if got, ok := a.top.RouterFor(topo.ProductionAddr(nettest.TargetAS)); !ok || got != n.Hub(nettest.TargetAS) {
		t.Fatalf("RouterFor(production) = %v, %v", got, ok)
	}
	// Addresses outside any block fail.
	if _, ok := a.top.RouterFor(netip.MustParseAddr("203.0.113.9")); ok {
		t.Fatal("foreign address resolved")
	}
	// Addresses in a block whose AS doesn't exist fail.
	if _, ok := a.top.RouterFor(topo.ProductionAddr(9999)); ok {
		t.Fatal("nonexistent AS resolved")
	}
}

// TestSamePathDisambiguation: a record repeats another only when the two
// share one stored path — what a held probe hands back for an unchanged
// path. A prefix of the path, or an equal copy stored apart, is not a
// repeat.
func TestSamePathDisambiguation(t *testing.T) {
	n, a := setup(t)
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	a.RefreshAll()
	a.RefreshAll()
	recs := a.Reverse(vp, target)
	if len(recs) != 2 {
		t.Fatal("setup")
	}
	if !recs[1].Repeats(&recs[0]) || !recs[0].Repeats(&recs[0]) {
		t.Fatal("an unchanged path must repeat")
	}
	prefix := PathRecord{Hops: recs[0].Hops[:len(recs[0].Hops)-1]}
	if prefix.Repeats(&recs[0]) {
		t.Fatal("different lengths must differ")
	}
	if apart := (PathRecord{Hops: slices.Clone(recs[0].Hops)}); apart.Repeats(&recs[0]) {
		t.Fatal("a path stored apart repeats nothing")
	}
}

// TestNoteResponsiveNegativeObservation: the database holds answers only.
// An address nothing has heard is not responsive, and once it has answered,
// a later refresh that finds it silent does not erase the answer.
func TestNoteResponsiveNegativeObservation(t *testing.T) {
	n, a := setup(t)
	hub := n.Hub(nettest.TransitA)
	addr := n.Top.Router(hub).Addr
	if a.EverResponsive(addr) {
		t.Fatal("an address never heard must not be ever-responsive")
	}
	a.NoteResponsive(addr)
	if !a.EverResponsive(addr) {
		t.Fatal("positive observation lost")
	}
	n.Top.Router(hub).Responsive = false
	a.RefreshAll() // later silence must not erase history
	if !a.EverResponsive(addr) {
		t.Fatal("ever-responsive must be sticky")
	}
}
