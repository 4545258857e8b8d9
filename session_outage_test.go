package lifeguard_test

import (
	"net/netip"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/monitor"
)

// TestEventsCarryTheirOutage pins the one outage record: every event of an
// outage's pipeline — declaration, isolation, repair verdict, recovery —
// carries the monitor's own *Outage, the same pointer across the four, and
// the recovery lands at the outage's End. Two outages on one pair run back
// to back, so an event pointing at the wrong one is caught too.
func TestEventsCarryTheirOutage(t *testing.T) {
	n := fig2RigNetwork(t)
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:  asO,
		VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
		Targets: []netip.Addr{n.RouterAddr(n.Hub(asE))},
	})
	sys.Start()
	for i := 0; i < 2; i++ {
		n.Clk.RunFor(2 * time.Minute)
		id := n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
		n.Clk.RunFor(15 * time.Minute)
		n.HealFailure(id)
		n.Clk.RunFor(10 * time.Minute)
	}

	type pair struct {
		vp     lifeguard.RouterID
		target netip.Addr
	}
	open := map[pair]*monitor.Outage{}
	count := map[lifeguard.EventKind]int{}
	for _, e := range sys.History {
		count[e.Kind]++
		key := pair{e.VP, e.Target}
		switch e.Kind {
		case lifeguard.EventOutage:
			if e.Outage == nil {
				t.Fatalf("%v at %v carries no outage", e.Kind, e.At)
			}
			if open[key] != nil {
				t.Fatalf("outage declared at %v while the pair's previous one is open", e.At)
			}
			if e.Outage.Start > e.At {
				t.Fatalf("outage starts at %v, after its declaration at %v", e.Outage.Start, e.At)
			}
			if e.Outage.VP != e.VP || e.Outage.Target != e.Target {
				t.Fatalf("outage %+v declared for vp %v target %v", e.Outage, e.VP, e.Target)
			}
			open[key] = e.Outage
		case lifeguard.EventIsolated, lifeguard.EventRepair, lifeguard.EventRecovered:
			if e.Outage == nil || e.Outage != open[key] {
				t.Fatalf("%v at %v carries outage %p, want its declaration's %p", e.Kind, e.At, e.Outage, open[key])
			}
			if e.Kind == lifeguard.EventRecovered {
				if e.At != e.Outage.End {
					t.Fatalf("recovered at %v, outage ended at %v", e.At, e.Outage.End)
				}
				delete(open, key)
			}
		default:
			if e.Outage != nil {
				t.Fatalf("%v at %v carries an outage", e.Kind, e.At)
			}
		}
	}
	for _, k := range []lifeguard.EventKind{lifeguard.EventOutage, lifeguard.EventRepair, lifeguard.EventRecovered, lifeguard.EventUnpoison} {
		if count[k] < 2 {
			t.Fatalf("%d %v events over two outages, want at least 2: %v", count[k], k, count)
		}
	}
	if count[lifeguard.EventOutage] != count[lifeguard.EventIsolated] {
		t.Fatalf("%d outages but %d isolations", count[lifeguard.EventOutage], count[lifeguard.EventIsolated])
	}
}
