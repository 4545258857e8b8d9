package monitor

import (
	"testing"
	"time"

	"lifeguard/internal/atlas"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/nettest"
)

func setup(t *testing.T) (*nettest.Net, *Monitor) {
	t.Helper()
	n := nettest.Fig4(t)
	m := New(n.Prober, n.Clk)
	m.Watch(n.Hub(nettest.VP1AS), n.Top.Router(n.Hub(nettest.TargetAS)).Addr)
	return n, m
}

// recordOutages installs an OnOutage hook collecting every outage m
// declares, in declaration order.
func recordOutages(m *Monitor) *[]*Outage {
	var declared []*Outage
	m.OnOutage = func(o *Outage) { declared = append(declared, o) }
	return &declared
}

func TestNoOutageOnHealthyPath(t *testing.T) {
	n, m := setup(t)
	declared := recordOutages(m)
	m.Start()
	n.Clk.RunUntil(10 * time.Minute)
	if len(*declared) != 0 {
		t.Fatalf("outages on healthy path: %+v", *declared)
	}
}

func TestOutageDeclaredAfterThreshold(t *testing.T) {
	n, m := setup(t)
	declared := recordOutages(m)
	m.Start()
	n.Clk.RunUntil(5 * time.Minute)
	failAt := n.Clk.Now()
	n.ReverseFailure()
	n.Clk.RunUntil(failAt + 3*30*time.Second + time.Second)
	if len(*declared) != 0 {
		t.Fatal("outage declared before 4 failed rounds")
	}
	n.Clk.RunUntil(failAt + 5*30*time.Second)
	if len(*declared) != 1 {
		t.Fatalf("declared = %d, want 1", len(*declared))
	}
	o := (*declared)[0]
	if o.Start < failAt {
		t.Fatalf("outage start %v before failure %v", o.Start, failAt)
	}
	if o.End != 0 {
		t.Fatalf("open outage has an end: %+v", o)
	}
}

func TestRecoveryEndsOutage(t *testing.T) {
	n, m := setup(t)
	declared := recordOutages(m)
	var recovered []*Outage
	m.OnRecovery = func(o *Outage) { recovered = append(recovered, o) }
	m.Start()
	n.Clk.RunUntil(time.Minute)
	id := n.ReverseFailure()
	n.Clk.RunUntil(20 * time.Minute)
	if len(*declared) != 1 {
		t.Fatalf("declared = %d, want 1", len(*declared))
	}
	n.Plane.RemoveFailure(id)
	n.Clk.RunUntil(25 * time.Minute)
	if len(recovered) != 1 {
		t.Fatalf("recovered = %d, want 1", len(recovered))
	}
	o := recovered[0]
	if o != (*declared)[0] {
		t.Fatal("OnRecovery was handed a different outage than OnOutage")
	}
	if o.End == 0 || o.End <= o.Start {
		t.Fatalf("bad outage window: %+v", o)
	}
	// The measured duration must roughly match the injected ~19 minutes.
	d := o.End - o.Start
	if d < 15*time.Minute || d > 25*time.Minute {
		t.Fatalf("duration = %v", d)
	}
}

func TestMinimumObservableOutage(t *testing.T) {
	// A blip shorter than threshold*interval never becomes an outage —
	// the 90s floor of the paper's methodology.
	n, m := setup(t)
	declared := recordOutages(m)
	m.Start()
	n.Clk.RunUntil(time.Minute)
	id := n.ReverseFailure()
	n.Clk.RunFor(65 * time.Second) // two rounds fail
	n.Plane.RemoveFailure(id)
	n.Clk.RunUntil(30 * time.Minute)
	if len(*declared) != 0 {
		t.Fatalf("short blip declared as outage: %+v", *declared)
	}
}

func TestWatchDedup(t *testing.T) {
	n, m := setup(t)
	m.Watch(n.Hub(nettest.VP1AS), n.Top.Router(n.Hub(nettest.TargetAS)).Addr)
	if len(m.pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(m.pairs))
	}
}

func TestStopHaltsProbing(t *testing.T) {
	n, m := setup(t)
	m.Start()
	n.Clk.RunUntil(time.Minute)
	m.Stop()
	sent := n.Prober.Sent
	n.Clk.RunUntil(time.Hour)
	if n.Prober.Sent != sent {
		t.Fatal("probing continued after Stop")
	}
}

func TestPartialOutageOnlyAffectedVP(t *testing.T) {
	n := nettest.Fig4(t)
	m := New(n.Prober, n.Clk)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	m.Watch(n.Hub(nettest.VP1AS), target)
	m.Watch(n.Hub(nettest.VP5AS), target)
	declared := recordOutages(m)
	m.Start()
	n.Clk.RunUntil(time.Minute)
	n.ReverseFailure() // only VP1's reverse direction breaks
	n.Clk.RunUntil(10 * time.Minute)
	if len(*declared) != 1 {
		t.Fatalf("declared = %+v, want exactly the VP1 outage", *declared)
	}
	if (*declared)[0].VP != n.Hub(nettest.VP1AS) {
		t.Fatal("wrong VP blamed")
	}
}

// TestRoundsFeedTheResponsivenessDB: a pair whose target answers notes it in
// the atlas the monitor points at — the one it points at now, although the
// pair remembers the atlas it noted the target in rather than noting it every
// round — and a target that cannot be reached notes nothing.
func TestRoundsFeedTheResponsivenessDB(t *testing.T) {
	n, m := setup(t)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	newAtlas := func() *atlas.Atlas { return atlas.New(n.Top, n.Prober, n.Clk) }
	first := newAtlas()
	m.Atlas = first

	id := n.Plane.AddFailure(dataplane.BlackholeAS(nettest.TargetAS))
	m.Round()
	if first.EverResponsive(target) {
		t.Fatal("a target no probe reached was noted responsive")
	}
	n.Plane.RemoveFailure(id)
	m.Round()
	if !first.EverResponsive(target) {
		t.Fatal("an answering target was not noted")
	}
	// The reverse path failing does not stop the target answering.
	second := newAtlas()
	m.Atlas = second
	n.ReverseFailure()
	m.Round()
	if !second.EverResponsive(target) {
		t.Fatal("after the monitor's atlas was replaced, the answer went to the old one")
	}
}
