package probe

import (
	"net/netip"
	"testing"

	"lifeguard/internal/dataplane"
	"lifeguard/internal/topo"
)

// failureTowards is shorthand for a dst-scoped AS blackhole.
func failureTowards(asn topo.ASN, p netip.Prefix) dataplane.Rule {
	return dataplane.BlackholeASTowards(asn, p)
}

func TestPingFromAddr(t *testing.T) {
	f := buildFig4(t)
	// Announce a production prefix at AS1 so replies to it can route.
	f.eng.Originate(1, topo.ProductionPrefix(1))
	f.eng.Converge(1_000_000)
	dst := f.top.Router(f.dst).Addr
	rep := f.pr.PingFromAddr(f.vp1, topo.ProductionAddr(1), dst)
	if !rep.OK {
		t.Fatalf("production-sourced ping failed: %+v", rep)
	}
	// The reply must have been addressed to the production prefix, not
	// the router: its walk terminates at AS1's hub (the prefix host).
	if rep.Reverse.LastAS != 1 {
		t.Fatalf("reply landed in AS%d", rep.Reverse.LastAS)
	}
}

func TestPingFromAddrReverseScopedFailure(t *testing.T) {
	f := buildFig4(t)
	f.eng.Originate(1, topo.ProductionPrefix(1))
	f.eng.Converge(1_000_000)
	// AS3 drops only traffic toward the production /24 — the poisoned
	// prefix scenario. Production-sourced pings fail; router-sourced
	// pings still work.
	f.pl.AddFailure(failureTowards(3, topo.ProductionPrefix(1)))
	dst := f.top.Router(f.dst).Addr
	if rep := f.pr.PingFromAddr(f.vp1, topo.ProductionAddr(1), dst); rep.OK {
		t.Fatal("production-sourced ping should fail")
	}
	if rep := f.pr.Ping(f.vp1, dst); !rep.OK {
		t.Fatal("router-sourced ping should still work")
	}
}

func TestPingFromAddrForwardLoss(t *testing.T) {
	f := buildFig4(t)
	f.eng.Originate(1, topo.ProductionPrefix(1))
	f.eng.Converge(1_000_000)
	f.pl.AddFailure(failureTowards(2, topo.Block(4)))
	rep := f.pr.PingFromAddr(f.vp1, topo.ProductionAddr(1), f.top.Router(f.dst).Addr)
	if rep.OK || rep.ForwardOK {
		t.Fatalf("forward direction should fail: %+v", rep)
	}
}

func TestPingFromAddrUnresponsiveTarget(t *testing.T) {
	f := buildFig4(t)
	f.eng.Originate(1, topo.ProductionPrefix(1))
	f.eng.Converge(1_000_000)
	f.top.Router(f.dst).Responsive = false
	rep := f.pr.PingFromAddr(f.vp1, topo.ProductionAddr(1), f.top.Router(f.dst).Addr)
	if rep.OK || rep.Responded || !rep.ForwardOK {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCharge(t *testing.T) {
	f := buildFig4(t)
	f.pr.Charge(17)
	if f.pr.Sent != 17 {
		t.Fatalf("Sent = %d", f.pr.Sent)
	}
}

func TestLastResponsiveEmptyAndAllStars(t *testing.T) {
	var rep TracerouteReport
	if _, ok := rep.LastResponsive(); ok {
		t.Fatal("empty report should have no responsive hop")
	}
	rep.Hops = []Hop{{Star: true}, {Star: true}}
	if _, ok := rep.LastResponsive(); ok {
		t.Fatal("all-star report should have no responsive hop")
	}
	if p := rep.ASPath(); len(p) != 0 {
		t.Fatalf("ASPath of stars = %v", p)
	}
}
