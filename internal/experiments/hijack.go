package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"lifeguard"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/metrics"
	"lifeguard/internal/obs"
)

// The hijack experiment measures the ARTEMIS-style pipeline end to end on a
// synthetic Internet, sweeping where the rogue AS sits relative to the
// victim: a rogue close to the victim's providers captures more of the
// network before longest-prefix-match mitigation claws it back. Each
// placement level injects a sub-prefix hijack against an owner running the
// full Session hijack plane and reports the three headline numbers —
// detection latency, mitigation latency, and the fraction of ASes whose
// data plane recovered — plus whether the alarm cleared after the rogue
// withdrew.

// hijackDistances is the rogue-placement sweep: the AS-path distance from
// the rogue to the victim origin. Rogues are picked among stubs at exactly
// this distance; levels with no such stub report placed=0.
var hijackDistances = []int{2, 3, 4}

// hjPart is one placement level's outcome.
type hjPart struct {
	distance int
	placed   bool
	rogue    lifeguard.ASN
	// detectS and mitigateS are the measured latencies in seconds.
	detectS, mitigateS float64
	// reachAttack and reachMitigated are the fraction of routered ASes
	// whose data plane delivered to the owner for the contested prefix,
	// measured at the attack's convergence and after mitigation verified.
	reachAttack, reachMitigated float64
	mitigated, cleared          bool
}

// hjReachFraction measures the fraction of routered ASes (owner and rogue
// excluded) whose data plane delivers traffic for probe to the owner.
func hjReachFraction(n *lifeguard.Network, owner, rogue lifeguard.ASN, probe lifeguard.Addr) float64 {
	reached, total := 0, 0
	for _, asn := range n.Top.ASNs() {
		if asn == owner || asn == rogue {
			continue
		}
		as := n.Top.AS(asn)
		if len(as.Routers) == 0 {
			continue
		}
		total++
		res := n.Plane.Forward(as.Routers[0], dataplane.Packet{Dst: probe})
		if res.Delivered() && res.LastAS == owner {
			reached++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(reached) / float64(total)
}

func hijackTrial(seed int64, distance int, reg *obs.Registry) hjPart {
	n, err := lifeguard.GenerateInternet(
		lifeguard.InternetConfig{Seed: seed, NumTransit: 12, NumStub: 30},
		lifeguard.NetworkOptions{
			Seed: seed,
			BGP:  lifeguard.BGPConfig{MRAI: 200 * time.Millisecond, MRAIJitter: -1, PropJitter: -1},
			Obs:  reg,
		})
	if err != nil {
		panic(fmt.Sprintf("hijack experiment: %v", err))
	}
	owner := n.Gen.Stubs[0]
	part := hjPart{distance: distance}

	// Rogue: the first stub whose AS path to the owner has the requested
	// length. Deterministic — Gen.Stubs order is seed-fixed.
	for _, cand := range n.Gen.Stubs[1:] {
		if len(n.Eng.ASPathTo(cand, lifeguard.ProductionAddr(owner))) == distance {
			part.placed, part.rogue = true, cand
			break
		}
	}
	if !part.placed {
		return part
	}

	ses, err := lifeguard.NewRig(n).AddSession(lifeguard.SessionConfig{
		Config: lifeguard.Config{Origin: owner},
		Hijack: lifeguard.HijackConfig{
			Enable:         true,
			CollectorPeers: n.Gen.Transit,
		},
	})
	if err != nil {
		panic(fmt.Sprintf("hijack experiment: %v", err))
	}
	ses.Start()
	n.Clk.RunFor(2 * time.Minute)

	// The rogue originates a more-specific inside the owner's block,
	// outside the production/sentinel range so it is a sub-prefix (not
	// exact-prefix) attack.
	b := lifeguard.Block(owner).Addr().As4()
	sub := netip.PrefixFrom(netip.AddrFrom4([4]byte{b[0], b[1], 128, 0}), 24)
	probe := netip.AddrFrom4([4]byte{b[0], b[1], 128, 1})
	n.Eng.Announce(part.rogue, sub, lifeguard.OriginConfig{})
	n.Converge()
	part.reachAttack = hjReachFraction(n, owner, part.rogue, probe)

	n.Clk.RunFor(10 * time.Minute)
	if det := ses.EventsOfKind(lifeguard.EventHijackDetected); len(det) > 0 {
		part.detectS = det[0].Alarm.Latency.Seconds()
	}
	if mit := ses.EventsOfKind(lifeguard.EventHijackMitigated); len(mit) > 0 {
		part.mitigated = true
		part.mitigateS = mit[0].Mitigation.Latency.Seconds()
	}
	n.Converge()
	part.reachMitigated = hjReachFraction(n, owner, part.rogue, probe)

	// The rogue withdraws; the alarm must clear and the counter-
	// announcements come down with it.
	n.Eng.Withdraw(part.rogue, sub)
	n.Clk.RunFor(5 * time.Minute)
	part.cleared = len(ses.Hijack.Active()) == 0 && len(ses.Remedy.Counters()) == 0
	ses.Stop()
	return part
}

func reduceHijack(parts []hjPart) *Result {
	r := newResult("hijack", "hijack detection and auto-mitigation vs rogue placement")
	tab := &metrics.Table{
		Title:  "hijack — sub-prefix attack vs the session hijack plane, by rogue distance",
		Header: []string{"rogue distance", "detect (s)", "mitigate (s)", "reach attack", "reach mitigated", "cleared"},
	}
	for _, h := range parts {
		if !h.placed {
			continue
		}
		tab.AddRow(h.distance, h.detectS, h.mitigateS, h.reachAttack, h.reachMitigated, h.cleared)
		key := fmt.Sprintf("_d%d", h.distance)
		r.Values["detect_s"+key] = h.detectS
		r.Values["mitigate_s"+key] = h.mitigateS
		r.Values["reach_attack"+key] = h.reachAttack
		r.Values["reach_mitigated"+key] = h.reachMitigated
		if h.cleared {
			r.Values["cleared"+key] = 1
		}
	}
	r.addTable(tab)
	r.notef("beyond the paper: LIFEGUARD's machinery (collectors, poisoned announcements, data-plane sentinels) repurposed as an ARTEMIS-style owner-side hijack defense; detection rides the collector streams, mitigation the counter-announcement engine")
	r.notef("mitigation recovers by longest-prefix match, so the recovered fraction rises toward 1.0 regardless of rogue placement; detection latency is bounded by the scan interval plus propagation")
	return r
}
