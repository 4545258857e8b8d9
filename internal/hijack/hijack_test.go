package hijack_test

import (
	"net/netip"
	"testing"
	"time"

	"lifeguard/internal/bgp"
	"lifeguard/internal/collectors"
	"lifeguard/internal/core/remedy"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/hijack"
	"lifeguard/internal/nettest"
	"lifeguard/internal/topo"
)

func TestTableLookup(t *testing.T) {
	tbl := hijack.NewTable()
	tbl.Add(netip.MustParsePrefix("1.10.0.0/16"), 10)
	tbl.Add(netip.MustParsePrefix("1.10.0.0/24"), 10)
	tbl.Add(netip.MustParsePrefix("1.50.0.0/16"), 50)

	if owner, exact, ok := tbl.Owner(netip.MustParsePrefix("1.10.0.0/24")); !ok || !exact || owner != 10 {
		t.Fatalf("exact lookup = %d/%v/%v", owner, exact, ok)
	}
	if owner, exact, ok := tbl.Owner(netip.MustParsePrefix("1.10.128.0/24")); !ok || exact || owner != 10 {
		t.Fatalf("covering lookup = %d/%v/%v, want 10/false/true", owner, exact, ok)
	}
	if _, _, ok := tbl.Owner(netip.MustParsePrefix("9.9.9.0/24")); ok {
		t.Fatal("lookup outside owned space resolved")
	}
}

// TestTableCoveringOwnerAnyInsertionOrder: whatever order nested entries
// are added in, a covering lookup resolves to the longest covering entry.
func TestTableCoveringOwnerAnyInsertionOrder(t *testing.T) {
	entries := []struct {
		prefix string
		owner  topo.ASN
	}{{"1.0.0.0/8", 1}, {"1.10.0.0/16", 10}, {"1.10.128.0/17", 11}, {"1.10.200.0/24", 12}}
	queries := []struct {
		prefix string
		owner  topo.ASN
	}{{"1.10.200.128/25", 12}, {"1.10.129.0/24", 11}, {"1.10.1.0/24", 10}, {"1.20.0.0/16", 1}}
	var permute func(k int, order []int)
	permute = func(k int, order []int) {
		if k == len(order) {
			tbl := hijack.NewTable()
			for _, i := range order {
				tbl.Add(netip.MustParsePrefix(entries[i].prefix), entries[i].owner)
			}
			for _, q := range queries {
				if owner, exact, ok := tbl.Owner(netip.MustParsePrefix(q.prefix)); !ok || exact || owner != q.owner {
					t.Fatalf("insertion order %v: Owner(%s) = %d/%v/%v, want %d/false/true", order, q.prefix, owner, exact, ok, q.owner)
				}
			}
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(k+1, order)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute(0, []int{0, 1, 2, 3})
}

// pipeline assembles the full detection+mitigation stack over Fig. 2 with
// the origin's repair controller, collector peers at A, B and E, and an
// ownership table snapshotted before any attack.
func pipeline(t *testing.T) (*nettest.Net, *remedy.Controller, *hijack.Detector, *hijack.Responder) {
	t.Helper()
	n := nettest.Fig2(t)
	ctl := remedy.New(n.Eng, n.Prober, n.Clk, remedy.Config{Origin: nettest.O})
	ctl.AnnounceBaseline()
	n.Converge(t)

	col := collectors.New(n.Eng, nettest.A, nettest.B, nettest.E)
	tbl := hijack.TableFromEngine(n.Eng)
	det := hijack.NewDetector(col, n.Top, n.Clk, tbl)
	resp := hijack.NewResponder(det, ctl, n.Plane, nettest.O)
	det.Start()
	return n, ctl, det, resp
}

// recordAlarms chains onto det.OnAlarm and returns every alarm raised from
// now on, in detection order.
func recordAlarms(det *hijack.Detector) *[]*hijack.Alarm {
	var alarms []*hijack.Alarm
	next := det.OnAlarm
	det.OnAlarm = func(a *hijack.Alarm) {
		alarms = append(alarms, a)
		if next != nil {
			next(a)
		}
	}
	return &alarms
}

// TestDetectSubPrefix runs the headline scenario: a rogue more-specific
// appears in the collector streams and must be classified as a sub-prefix
// hijack of the covering owner, with a positive detection latency, and the
// alarm must clear once the rogue withdraws.
func TestDetectSubPrefix(t *testing.T) {
	n, _, det, _ := pipeline(t)
	alarms := recordAlarms(det)
	sub := netip.MustParsePrefix("1.10.128.0/24")
	n.Clk.RunFor(1 * time.Minute)
	if len(*alarms) != 0 {
		t.Fatalf("false alarms before the attack: %v", (*alarms)[0])
	}

	n.Eng.Announce(nettest.F, sub, bgp.OriginConfig{})
	n.Clk.RunFor(2 * time.Minute)
	if len(*alarms) != 1 {
		t.Fatalf("%d alarms, want exactly 1", len(*alarms))
	}
	a := (*alarms)[0]
	if a.Class != hijack.SubPrefix || a.Rogue != nettest.F || a.Owner != nettest.O || a.Prefix != sub {
		t.Fatalf("misclassified: %v", a)
	}
	if a.Latency <= 0 || a.Latency > det.Interval()+time.Minute {
		t.Fatalf("implausible detection latency %v", a.Latency)
	}
	if len(a.Peers) == 0 {
		t.Fatal("alarm lists no offending peers")
	}

	n.Eng.Withdraw(nettest.F, sub)
	n.Clk.RunFor(2 * time.Minute)
	if len(det.Active()) != 0 {
		t.Fatalf("alarm did not clear: %v", det.Active()[0])
	}
	if a.ClearedAt == 0 {
		t.Fatal("cleared alarm has no ClearedAt stamp")
	}
}

// TestDetectExactAndForged covers the other two classes: a false origin on
// a listed prefix, and an authentic origin reached over a fabricated
// adjacency.
func TestDetectExactAndForged(t *testing.T) {
	n, _, det, _ := pipeline(t)
	alarms := recordAlarms(det)

	n.Eng.Announce(nettest.F, topo.Block(nettest.O), bgp.OriginConfig{})
	n.Clk.RunFor(1 * time.Minute)
	if len(*alarms) != 1 || (*alarms)[0].Class != hijack.ExactPrefix || (*alarms)[0].Rogue != nettest.F {
		t.Fatalf("exact hijack not detected: %v", *alarms)
	}
	n.Eng.Withdraw(nettest.F, topo.Block(nettest.O))
	n.Clk.RunFor(1 * time.Minute)

	// F forges origin D for D's block — the path ends at D, so only the
	// nonexistent F–D adjacency betrays it.
	if err := n.Eng.AnnounceForged(nettest.F, topo.Block(nettest.D), topo.Path{nettest.F, nettest.D}); err != nil {
		t.Fatal(err)
	}
	n.Clk.RunFor(1 * time.Minute)
	if len(*alarms) != 2 {
		t.Fatalf("%d alarms, want 2", len(*alarms))
	}
	a := (*alarms)[1]
	if a.Class != hijack.ForgedOrigin || a.Rogue != nettest.F || a.Owner != nettest.D {
		t.Fatalf("forged origin misclassified: %v", a)
	}
}

// TestMitigateSubPrefix closes the loop: the responder re-claims the
// hijacked more-specific by announcing its two halves — winning longest-
// prefix match everywhere — with the rogue poisoned, verifies recovery
// from the owner's provider, and withdraws the counter-announcements when
// the attack clears.
func TestMitigateSubPrefix(t *testing.T) {
	n, ctl, det, resp := pipeline(t) // vantages: O's providers = {B}
	sub := netip.MustParsePrefix("1.10.128.0/24")
	n.Eng.Announce(nettest.F, sub, bgp.OriginConfig{})
	n.Clk.RunFor(5 * time.Minute)

	if len(resp.Mitigations) != 1 {
		t.Fatalf("%d mitigations, want 1", len(resp.Mitigations))
	}
	m := resp.Mitigations[0]
	if m.Poisoned != nettest.F || m.Fallback {
		t.Fatalf("sub-prefix response should poison the rogue: %+v", m)
	}
	lo, hi, _ := remedy.Halves(sub)
	if len(m.Announced) != 2 || m.Announced[0] != lo || m.Announced[1] != hi {
		t.Fatalf("announced %v, want the contested halves %v, %v", m.Announced, lo, hi)
	}
	if !m.Verified() {
		t.Fatalf("mitigation never verified after %d checks (%d/%d recovered)",
			m.Checks, m.Recovered, m.Vantages)
	}
	if m.Latency <= 0 {
		t.Fatalf("mitigation latency %v, want > 0", m.Latency)
	}
	if got := len(ctl.Counters()); got != 2 {
		t.Fatalf("%d counter-announcements tracked, want 2", got)
	}

	n.Eng.Withdraw(nettest.F, sub)
	n.Clk.RunFor(2 * time.Minute)
	if len(det.Active()) != 0 {
		t.Fatal("alarm still active after the rogue withdrew")
	}
	if !m.Withdrawn {
		t.Fatal("counter-announcement not withdrawn on clearance")
	}
	if got := len(ctl.Counters()); got != 0 {
		t.Fatalf("%d counter-announcements still tracked after clearance", got)
	}
}

// TestMitigateExactByDeaggregation pins the ARTEMIS response to an exact
// hijack: the two more-specific halves out-compete the rogue /16 by
// longest-prefix match even at ASes whose BGP decision prefers the rogue.
// The responder verifies from O's provider B; A and E are exactly the
// captured ASes, so the test checks both halves from them itself.
func TestMitigateExactByDeaggregation(t *testing.T) {
	n, _, _, resp := pipeline(t)
	victim := topo.Block(nettest.O)
	n.Eng.Announce(nettest.F, victim, bgp.OriginConfig{})
	n.Clk.RunFor(5 * time.Minute)

	if len(resp.Mitigations) != 1 {
		t.Fatalf("%d mitigations, want 1", len(resp.Mitigations))
	}
	m := resp.Mitigations[0]
	lo, hi, _ := remedy.Halves(victim)
	if len(m.Announced) != 2 || m.Announced[0] != lo || m.Announced[1] != hi {
		t.Fatalf("announced %v, want the halves %v, %v", m.Announced, lo, hi)
	}
	if m.Poisoned != 0 {
		t.Fatalf("de-aggregation should not poison, got %d", m.Poisoned)
	}
	if !m.Verified() || m.Recovered != 1 {
		t.Fatalf("provider vantage did not recover: verified=%v %d/%d",
			m.Verified(), m.Recovered, m.Vantages)
	}
	// One host in each half, outside the production and sentinel
	// prefixes (which O's own more-specifics cover whatever the /16 does).
	for _, dst := range []netip.Addr{netip.MustParseAddr("1.10.64.1"), netip.MustParseAddr("1.10.192.1")} {
		for _, v := range []topo.ASN{nettest.A, nettest.E} {
			res := n.Plane.Forward(n.Hub(v), dataplane.Packet{Dst: dst})
			if !res.Delivered() || res.LastAS != nettest.O {
				t.Fatalf("captured AS%d: %v ends at AS%d (%v), want O", v, dst, res.LastAS, res.Reason)
			}
		}
	}
}

// TestUnpoisonableRogueFallsBack pins the Smith et al. feasibility result:
// a rogue that disables loop detection ignores poison tokens, so the
// responder must fall back to the plain pattern rather than announce a
// poison that cannot work.
func TestUnpoisonableRogueFallsBack(t *testing.T) {
	n := nettest.Fig2Unpoisonable(t)
	ctl := remedy.New(n.Eng, n.Prober, n.Clk, remedy.Config{Origin: nettest.O})
	ctl.AnnounceBaseline()
	n.Converge(t)
	col := collectors.New(n.Eng, nettest.A, nettest.B, nettest.E)
	det := hijack.NewDetector(col, n.Top, n.Clk, hijack.TableFromEngine(n.Eng))
	resp := hijack.NewResponder(det, ctl, n.Plane, nettest.O)
	det.Start()

	sub := netip.MustParsePrefix("1.10.128.0/24")
	n.Eng.Announce(nettest.F, sub, bgp.OriginConfig{})
	n.Clk.RunFor(3 * time.Minute)
	if len(resp.Mitigations) != 1 {
		t.Fatalf("%d mitigations, want 1", len(resp.Mitigations))
	}
	m := resp.Mitigations[0]
	if !m.Fallback || m.Poisoned != 0 {
		t.Fatalf("expected plain-pattern fallback against an unpoisonable rogue: %+v", m)
	}
}

// TestResponderIgnoresOtherOwners: a multi-tenant rig shares the collector
// view, so a responder must not react to attacks on space it doesn't own.
func TestResponderIgnoresOtherOwners(t *testing.T) {
	n, _, _, resp := pipeline(t)
	n.Eng.Announce(nettest.F, netip.MustParsePrefix("1.50.240.0/24"), bgp.OriginConfig{})
	n.Clk.RunFor(2 * time.Minute)
	if len(resp.Mitigations) != 0 {
		t.Fatalf("responder for AS%d mitigated AS%d's prefix: %+v",
			nettest.O, nettest.D, resp.Mitigations[0])
	}
}
