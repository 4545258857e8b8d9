package lifeguard_test

import (
	"net/netip"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/core/isolation"
	"lifeguard/internal/core/remedy"
	"lifeguard/internal/splice"
	"lifeguard/internal/topo"
)

// Fig. 2 cast, built through the public API.
const (
	asO lifeguard.ASN = 10
	asB lifeguard.ASN = 20
	asA lifeguard.ASN = 30
	asC lifeguard.ASN = 40
	asD lifeguard.ASN = 50
	asE lifeguard.ASN = 60
	asF lifeguard.ASN = 70
)

// logged counts s's history events of kind k.
func logged(s *lifeguard.Session, k lifeguard.EventKind) (n int) {
	for _, e := range s.History {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func fig2Network(t *testing.T) *lifeguard.Network {
	t.Helper()
	return fig2NetworkWith(t, lifeguard.NetworkOptions{Seed: 11})
}

// fig2NetworkWith assembles the Fig. 2 internetwork with opts.
func fig2NetworkWith(t *testing.T, opts lifeguard.NetworkOptions) *lifeguard.Network {
	t.Helper()
	b := lifeguard.NewTopologyBuilder()
	for _, asn := range []lifeguard.ASN{asO, asB, asA, asC, asD, asE, asF} {
		b.AddAS(asn, "")
		b.AddRouter(asn, "")
	}
	for _, r := range [][2]lifeguard.ASN{{asO, asB}, {asB, asA}, {asB, asC}, {asC, asD}, {asA, asE}, {asD, asE}, {asF, asA}} {
		b.Provider(r[0], r[1])
		b.ConnectAS(r[0], r[1])
	}
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := lifeguard.AssembleNetwork(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEndToEndRepairLifecycle drives the complete LIFEGUARD loop on the
// Fig. 2 scenario: a silent reverse-path failure in A is detected, isolated
// to A, repaired by poisoning, and the poison is withdrawn once the sentinel
// sees the failure heal — the §6 case study in miniature.
func TestEndToEndRepairLifecycle(t *testing.T) {
	n := fig2Network(t)
	target := n.RouterAddr(n.Hub(asE))
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:  asO,
		VPs:     []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
		Targets: []netip.Addr{target},
	})
	sys.Start()
	n.Clk.RunFor(3 * time.Minute) // healthy baseline

	failAt := n.Clk.Now()
	fid := n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
	n.Clk.RunFor(20 * time.Minute)

	// Outage detected and isolated to A, reverse direction.
	outages := sys.Outages()
	if len(outages) == 0 {
		t.Fatal("no outage detected")
	}
	o := outages[0]
	if rep := o.Report; rep.Blamed != topo.ASN(asA) || rep.Direction != isolation.Reverse {
		t.Fatalf("isolated %d/%v, want A/reverse", rep.Blamed, rep.Direction)
	}

	// Repair: poisoned, and not before the outage aged past the threshold.
	if o.Decided == 0 {
		t.Fatal("no repair decision")
	}
	if o.Action != remedy.Poisoned || o.Reason != lifeguard.ReasonPoisoned {
		t.Fatalf("repair action = %v (%v), want poisoned", o.Action, o.Reason)
	}
	if o.Decided < failAt+5*time.Minute {
		t.Fatalf("poisoned at %v, before the 5-minute maturity threshold (fail at %v)",
			o.Decided, failAt)
	}

	// Traffic recovered while the underlying failure persists.
	if o.End == 0 || !o.PoisonUp {
		t.Fatal("monitored traffic did not recover after poisoning")
	}
	if sys.Remedy.Active() == nil {
		t.Fatal("poison should still be active while A is broken")
	}
	// E must be routing around A on the production prefix.
	r, ok := n.Eng.BestRoute(topo.ASN(asE), lifeguard.ProductionPrefix(asO))
	if !ok || r.Path[0] != topo.ASN(asD) {
		t.Fatalf("E production route = %+v, want via D", r)
	}

	// Heal: the sentinel notices and the poison is withdrawn.
	n.HealFailure(fid)
	n.Clk.RunFor(10 * time.Minute)
	if sys.Remedy.Active() != nil {
		t.Fatal("poison not withdrawn after healing")
	}
	if logged(sys, lifeguard.EventUnpoison) != 1 || o.Repair.Ended == 0 {
		t.Fatal("missing unpoison event")
	}
	n.Converge()
	r, _ = n.Eng.BestRoute(topo.ASN(asE), lifeguard.ProductionPrefix(asO))
	if r.Path[0] != topo.ASN(asA) {
		t.Fatalf("E should return to the A path after unpoison, got %v", r.Path)
	}
	sys.Stop()
}

func TestObserverModeNeverPoisons(t *testing.T) {
	n := fig2Network(t)
	target := n.RouterAddr(n.Hub(asE))
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:            asO,
		VPs:               []lifeguard.RouterID{n.Hub(asO), n.Hub(asC)},
		Targets:           []netip.Addr{target},
		DisableAutoRepair: true,
	})
	sys.Start()
	n.Clk.RunFor(time.Minute)
	n.InjectFailure(lifeguard.BlackholeASTowards(asA, lifeguard.Block(asO)))
	n.Clk.RunFor(20 * time.Minute)
	if len(sys.Outages()) == 0 {
		t.Fatal("observer should still detect outages")
	}
	if logged(sys, lifeguard.EventRepair) != 0 {
		t.Fatal("observer mode must not repair")
	}
	if sys.Remedy.Active() != nil {
		t.Fatal("phantom poison")
	}
}

// TestRepairOnGeneratedInternet runs the whole pipeline on a synthetic
// Internet: pick a transit AS on the reverse path from a target stub to the
// origin stub, break it silently, and verify LIFEGUARD repairs it.
func TestRepairOnGeneratedInternet(t *testing.T) {
	n, err := lifeguard.GenerateInternet(lifeguard.InternetConfig{
		Seed: 42, NumTransit: 12, NumStub: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	origin := n.Gen.Stubs[0]

	// Choose a target stub whose reverse path to the origin has a transit
	// AS that can be avoided (an alternate valley-free path exists).
	var targetAS, blameAS lifeguard.ASN
search:
	for _, cand := range n.Gen.Stubs[1:] {
		path := n.Eng.ASPathTo(topo.ASN(cand), lifeguard.ProductionAddr(origin))
		for _, hop := range path {
			if hop == topo.ASN(origin) || hop == topo.ASN(cand) {
				continue
			}
			if splice.CanReach(n.Top, topo.ASN(cand), topo.ASN(origin), splice.Avoid1(hop)) {
				targetAS, blameAS = cand, lifeguard.ASN(hop)
				break search
			}
		}
	}
	if targetAS == 0 {
		t.Skip("no avoidable transit found for this seed")
	}

	target := n.RouterAddr(n.Hub(targetAS))
	helper := n.Gen.Stubs[len(n.Gen.Stubs)-1]
	sys := lifeguard.NewSystem(n, lifeguard.Config{
		Origin:  origin,
		VPs:     []lifeguard.RouterID{n.Hub(origin), n.Hub(helper)},
		Targets: []netip.Addr{target},
	})
	sys.Start()
	n.Clk.RunFor(2 * time.Minute)
	n.InjectFailure(lifeguard.BlackholeASTowards(blameAS, lifeguard.Block(origin)))
	n.Clk.RunFor(30 * time.Minute)

	outages := sys.Outages()
	if len(outages) == 0 || outages[0].Decided == 0 {
		t.Fatal("no repair on generated internet")
	}
	o := outages[0]
	if o.Action != remedy.Poisoned {
		t.Fatalf("action = %v (blamed %d, injected %d)", o.Action, o.Report.Blamed, blameAS)
	}
	if o.Repair.Avoided != topo.ASN(blameAS) {
		t.Fatalf("poisoned %d, injected failure at %d", o.Repair.Avoided, blameAS)
	}
	if o.End == 0 {
		t.Fatal("traffic did not recover")
	}
}
