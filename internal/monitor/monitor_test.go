package monitor

import (
	"testing"
	"time"

	"lifeguard/internal/atlas"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/nettest"
	"lifeguard/internal/topo"
)

func setup(t *testing.T) (*nettest.Net, *Monitor) {
	t.Helper()
	n := nettest.Fig4(t)
	m := New(n.Prober, n.Clk)
	m.Watch(n.Hub(nettest.VP1AS), n.Top.Router(n.Hub(nettest.TargetAS)).Addr)
	return n, m
}

func TestNoOutageOnHealthyPath(t *testing.T) {
	n, m := setup(t)
	m.Start()
	n.Clk.RunUntil(10 * time.Minute)
	if len(m.History) != 0 {
		t.Fatalf("outages on healthy path: %+v", m.History)
	}
}

func TestOutageDeclaredAfterThreshold(t *testing.T) {
	n, m := setup(t)
	var declared []*Outage
	m.OnOutage = func(o *Outage) { declared = append(declared, o) }
	m.Start()
	n.Clk.RunUntil(5 * time.Minute)
	failAt := n.Clk.Now()
	n.ReverseFailure()
	n.Clk.RunUntil(failAt + 3*30*time.Second + time.Second)
	if len(declared) != 0 {
		t.Fatal("outage declared before 4 failed rounds")
	}
	n.Clk.RunUntil(failAt + 5*30*time.Second)
	if len(declared) != 1 {
		t.Fatalf("declared = %d, want 1", len(declared))
	}
	o := declared[0]
	if o.Start < failAt {
		t.Fatalf("outage start %v before failure %v", o.Start, failAt)
	}
	if !m.Down(o.VP, o.Target) {
		t.Fatal("Down should report true")
	}
	if got := m.Ongoing(); len(got) != 1 || got[0] != o {
		t.Fatalf("Ongoing = %+v", got)
	}
}

func TestRecoveryEndsOutage(t *testing.T) {
	n, m := setup(t)
	var recovered []*Outage
	m.OnRecovery = func(o *Outage) { recovered = append(recovered, o) }
	m.Start()
	n.Clk.RunUntil(time.Minute)
	id := n.ReverseFailure()
	n.Clk.RunUntil(20 * time.Minute)
	if len(m.History) != 1 {
		t.Fatalf("history = %d, want 1", len(m.History))
	}
	n.Plane.RemoveFailure(id)
	n.Clk.RunUntil(25 * time.Minute)
	if len(recovered) != 1 {
		t.Fatalf("recovered = %d, want 1", len(recovered))
	}
	o := recovered[0]
	if o.End == 0 || o.End <= o.Start {
		t.Fatalf("bad outage window: %+v", o)
	}
	// The measured duration must roughly match the injected ~19 minutes.
	d := o.Duration(n.Clk.Now())
	if d < 15*time.Minute || d > 25*time.Minute {
		t.Fatalf("duration = %v", d)
	}
	if m.Down(o.VP, o.Target) {
		t.Fatal("pair still marked down after recovery")
	}
}

func TestMinimumObservableOutage(t *testing.T) {
	// A blip shorter than threshold*interval never becomes an outage —
	// the 90s floor of the paper's methodology.
	n, m := setup(t)
	m.Start()
	n.Clk.RunUntil(time.Minute)
	id := n.ReverseFailure()
	n.Clk.RunFor(65 * time.Second) // two rounds fail
	n.Plane.RemoveFailure(id)
	n.Clk.RunUntil(30 * time.Minute)
	if len(m.History) != 0 {
		t.Fatalf("short blip declared as outage: %+v", m.History)
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
	m.Start()
	n.Clk.RunUntil(time.Minute)
	n.ReverseFailure() // only VP1's reverse direction breaks
	n.Clk.RunUntil(10 * time.Minute)
	if len(m.History) != 1 {
		t.Fatalf("history = %+v, want exactly the VP1 outage", m.History)
	}
	if m.History[0].VP != n.Hub(nettest.VP1AS) {
		t.Fatal("wrong VP blamed")
	}
	if m.Down(n.Hub(nettest.VP5AS), target) {
		t.Fatal("VP5 should be unaffected — this is a partial outage")
	}
}

func TestOutageDurationHelper(t *testing.T) {
	o := Outage{Start: time.Minute}
	if o.Duration(3*time.Minute) != 2*time.Minute {
		t.Fatal("ongoing duration wrong")
	}
	o.End = 2 * time.Minute
	if o.Duration(100*time.Minute) != time.Minute {
		t.Fatal("resolved duration wrong")
	}
	_ = topo.ASN(0) // keep import
}

// TestRoundsFeedTheResponsivenessDB: a pair whose target answers notes it in
// the atlas the monitor points at — the one it points at now, although the
// pair holds the target's row rather than looking it up every round — and a
// target that cannot be reached notes nothing.
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
