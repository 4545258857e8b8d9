package monitor

import (
	"math/rand"
	"testing"
	"time"

	"lifeguard/internal/nettest"
)

// TestMonitorRecoversInjectedDurations validates the measurement pipeline
// the way the paper's EC2 study depends on it: inject outages of known
// durations and verify the monitor's measured durations match within the
// methodology's quantization (30s rounds, 4-round declaration threshold,
// 90s observable floor).
func TestMonitorRecoversInjectedDurations(t *testing.T) {
	n := nettest.Fig4(t)
	m := New(n.Prober, n.Clk)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	m.Watch(n.Hub(nettest.VP1AS), target)
	m.Start()

	rng := rand.New(rand.NewSource(17))
	type episode struct{ injected, measured time.Duration }
	var episodes []episode

	n.Clk.RunFor(2 * time.Minute)
	for i := 0; i < 12; i++ {
		// Durations from 2 to 30 minutes, well above the 90s floor.
		d := time.Duration(2+rng.Intn(29)) * time.Minute
		id := n.ReverseFailure()
		n.Clk.RunFor(d)
		n.Plane.RemoveFailure(id)
		// Let it recover and idle a bit before the next episode.
		n.Clk.RunFor(3 * time.Minute)
		episodes = append(episodes, episode{injected: d})
	}

	if len(m.History) != len(episodes) {
		t.Fatalf("detected %d outages, injected %d", len(m.History), len(episodes))
	}
	// The measured duration may be off by up to ~2 rounds on each side
	// (detection quantization + recovery round).
	const slack = 2 * 30 * time.Second
	for i, o := range m.History {
		if o.End == 0 {
			t.Fatalf("outage %d never recovered", i)
		}
		measured := o.Duration(n.Clk.Now())
		injected := episodes[i].injected
		if measured < injected-slack || measured > injected+slack {
			t.Fatalf("outage %d: measured %v, injected %v", i, measured, injected)
		}
	}
}

// TestMonitorFloorsShortBlips confirms the 90-second observability floor:
// blips shorter than threshold×interval are invisible, ones just above are
// caught.
func TestMonitorFloorsShortBlips(t *testing.T) {
	n := nettest.Fig4(t)
	m := New(n.Prober, n.Clk)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	m.Watch(n.Hub(nettest.VP1AS), target)
	m.Start()
	n.Clk.RunFor(time.Minute)

	// 60s blip: at most 2 failed rounds — invisible.
	id := n.ReverseFailure()
	n.Clk.RunFor(60 * time.Second)
	n.Plane.RemoveFailure(id)
	n.Clk.RunFor(3 * time.Minute)
	if len(m.History) != 0 {
		t.Fatalf("60s blip detected: %+v", m.History)
	}

	// 3-minute outage: 6 failed rounds — detected.
	id = n.ReverseFailure()
	n.Clk.RunFor(3 * time.Minute)
	n.Plane.RemoveFailure(id)
	n.Clk.RunFor(3 * time.Minute)
	if len(m.History) != 1 {
		t.Fatalf("3m outage missed: %+v", m.History)
	}
}
