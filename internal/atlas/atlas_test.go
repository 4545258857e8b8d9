package atlas

import (
	"testing"
	"time"

	"lifeguard/internal/nettest"
	"lifeguard/internal/topo"
)

func setup(t *testing.T) (*nettest.Net, *Atlas) {
	t.Helper()
	n := nettest.Fig4(t)
	a := New(n.Top, n.Prober, n.Clk)
	a.AddVP(n.Hub(nettest.VP1AS))
	a.AddTarget(n.Top.Router(n.Hub(nettest.TargetAS)).Addr)
	return n, a
}

func TestRefreshRecordsBothDirections(t *testing.T) {
	n, a := setup(t)
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	a.RefreshAll()
	fwd := a.Forward(vp, target)
	if len(fwd) != 1 || !fwd[0].Reached {
		t.Fatalf("forward records = %+v", fwd)
	}
	if got := fwd[0].ASPath(); !got.Equal(topo.Path{1, 2, 3, 4}) {
		t.Fatalf("forward AS path = %v", got)
	}
	rev := a.Reverse(vp, target)
	if len(rev) != 1 || !rev[0].Reached {
		t.Fatalf("reverse records = %+v", rev)
	}
	if got := rev[0].ASPath(); !got.Equal(topo.Path{4, 3, 2, 1}) {
		t.Fatalf("reverse AS path = %v", got)
	}
}

func TestResponsivenessDB(t *testing.T) {
	n, a := setup(t)
	hub2 := n.Hub(nettest.TransitA)
	if a.EverResponsive(n.Top.Router(hub2).Addr) {
		t.Fatal("nothing probed yet")
	}
	a.RefreshAll()
	if !a.EverResponsive(n.Top.Router(hub2).Addr) {
		t.Fatal("transit hub should be recorded responsive")
	}
	// A configured-silent router never becomes responsive.
	silent := n.Hub(nettest.TransitB)
	n.Top.Router(silent).Responsive = false
	a2 := New(n.Top, n.Prober, n.Clk)
	a2.AddVP(n.Hub(nettest.VP1AS))
	a2.AddTarget(n.Top.Router(n.Hub(nettest.TargetAS)).Addr)
	a2.RefreshAll()
	if a2.EverResponsive(n.Top.Router(silent).Addr) {
		t.Fatal("silent router must not be marked responsive")
	}
}

func TestHistoricalHopsUnion(t *testing.T) {
	n, a := setup(t)
	a.RefreshAll()
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	hops := a.HistoricalHops(vp, target)
	if len(hops) == 0 {
		t.Fatal("no historical hops")
	}
	seen := map[topo.RouterID]int{}
	for _, h := range hops {
		seen[h.Router]++
		if seen[h.Router] > 1 {
			t.Fatalf("duplicate hop %d", h.Router)
		}
	}
	// Hops from both directions should appear; the reverse path's
	// ingress into AS3 differs from the forward egress, so the union is
	// strictly bigger than either single path.
	fwd := a.Forward(vp, target)[0]
	if len(hops) <= len(fwd.Hops)-1 {
		t.Fatalf("union %d not larger than forward %d", len(hops), len(fwd.Hops))
	}
}

// TestMaxHistoryBound: past maxHistory refreshes, each direction keeps
// exactly the newest maxHistory records, oldest first.
func TestMaxHistoryBound(t *testing.T) {
	n, a := setup(t)
	var times []time.Duration
	for i := 0; i < maxHistory+3; i++ {
		times = append(times, n.Clk.Now())
		a.RefreshAll()
		n.Clk.RunFor(time.Minute)
	}
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	for _, dir := range []struct {
		name string
		recs []PathRecord
	}{{"forward", a.Forward(vp, target)}, {"reverse", a.Reverse(vp, target)}} {
		name, recs := dir.name, dir.recs
		if len(recs) != maxHistory {
			t.Fatalf("%s history length = %d, want %d", name, len(recs), maxHistory)
		}
		for i, rec := range recs {
			if want := times[3+i]; rec.At != want {
				t.Fatalf("%s record %d at %v, want %v: the oldest three must be the ones dropped", name, i, rec.At, want)
			}
		}
	}
}

// TestAmortizedRefreshCost: a path measured for the first time costs the
// from-scratch fullMeasureCost; re-confirming it unchanged costs only the
// prober's amortized 10, and the traceroute is the same either way.
func TestAmortizedRefreshCost(t *testing.T) {
	_, a := setup(t)
	a.RefreshAll() // first measurement: full cost
	first := a.pr.ResetSent()
	a.RefreshAll() // unchanged path: incremental cost only
	second := a.pr.ResetSent()
	if first-second != fullMeasureCost-10 {
		t.Fatalf("initial refresh %d probes, steady-state %d: the premium is %d, want %d",
			first, second, first-second, fullMeasureCost-10)
	}
}

func TestPeriodicRefreshAndStop(t *testing.T) {
	n, a := setup(t)
	start := n.Clk.Now()
	a.Start()
	n.Clk.RunUntil(start + 3*refreshInterval + refreshInterval/2)
	if a.PathsRefreshed != 4 { // start + 0, 1, 2, 3 intervals
		t.Fatalf("PathsRefreshed = %d, want 4", a.PathsRefreshed)
	}
	a.Stop()
	n.Clk.RunFor(10 * refreshInterval)
	if a.PathsRefreshed != 4 {
		t.Fatalf("refresh continued after Stop: %d", a.PathsRefreshed)
	}
}

func TestLatestReverseBefore(t *testing.T) {
	n, a := setup(t)
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	base := n.Clk.Now()
	a.RefreshAll() // at base
	n.Clk.RunFor(10 * time.Minute)
	a.RefreshAll() // at base+10m
	n.Clk.RunFor(10 * time.Minute)
	recs := a.LatestReverseBefore(vp, target, base+5*time.Minute)
	if len(recs) != 1 || recs[0].At != base {
		t.Fatalf("records before base+5m = %+v", recs)
	}
	recs = a.LatestReverseBefore(vp, target, base+15*time.Minute)
	if len(recs) != 2 || recs[0].At != base+10*time.Minute {
		t.Fatalf("records before base+15m not newest-first: %+v", recs)
	}
}

func TestReverseRefreshFailsDuringFailure(t *testing.T) {
	n, a := setup(t)
	a.RefreshAll()
	n.ReverseFailure()
	before := a.PathsRefreshed
	a.RefreshAll()
	if a.PathsRefreshed != before {
		t.Fatal("reverse refresh should fail during reverse-path failure")
	}
	// Forward record is still appended (with stars past the horizon).
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	fwd := a.Forward(vp, target)
	lastRec := fwd[len(fwd)-1]
	if lastRec.Reached {
		t.Fatal("forward traceroute should not complete during failure")
	}
}

func TestRefreshRate(t *testing.T) {
	n, a := setup(t)
	a.Start()
	n.Clk.RunUntil(10 * refreshInterval)
	// One pair refreshed every refreshInterval.
	want := 1 / refreshInterval.Minutes()
	if rate := a.RefreshRatePerMinute(); rate < 0.9*want || rate > 1.3*want {
		t.Fatalf("refresh rate = %v paths/min, want ~%v", rate, want)
	}
}
