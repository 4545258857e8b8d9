package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"lifeguard"
	"lifeguard/internal/bgp"
	"lifeguard/internal/chaos"
	"lifeguard/internal/metrics"
	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
	"lifeguard/internal/traffic"
)

// The traffic experiment scores the repair loop the way the paper's
// headline framing does: not probe convergence but user traffic actually
// served. A flow population behind remote vantage ASes exchanges packet
// pairs with the origin's production prefix every epoch while a scripted
// reverse-path blackhole runs for 20 minutes; the experiment replays the
// identical timeline with a lifeguard.Session's auto-repair armed and
// disarmed, and reports user-seconds lost in each world. Each world is one
// trial.

const (
	// trafficFlows is the modelled population size per mode, kept
	// CI-sized.
	trafficFlows = 120_000
	// trafficEpoch is the accounting interval; it equals the monitor's
	// default round interval so served-traffic accounting and detection
	// share a timescale.
	trafficEpoch = 30 * time.Second
)

// trafficPart is one world's trial outcome.
type trafficPart struct {
	flows      int
	eps        []traffic.EpochReport
	poisons    int
	violations int
}

// trafficScenario runs the repair world, then the norepair world.
var trafficScenario = sweep([]bool{true, false}, trafficTrial, reduceTraffic)

// trafficDests spreads the monitored destinations over the origin's
// production /24: one routed prefix, several user-facing addresses.
func trafficDests(origin topo.ASN) []traffic.Dest {
	base := topo.ProductionAddr(origin).As4()
	var dests []traffic.Dest
	for i := 0; i < 4; i++ {
		addr := netip.AddrFrom4([4]byte{base[0], base[1], base[2], byte(1 + i)})
		dests = append(dests, traffic.Dest{Addr: addr, Weight: 1 + i%3})
	}
	return dests
}

func trafficTrial(seed int64, repair bool, reg *obs.Registry) trafficPart {
	n, rng := world(seed, topogen.Config{NumTransit: 12, NumStub: 24}, 3, bgp.Config{}, reg)

	// The user populations sit behind four remote stubs; the same stubs
	// are the monitor's targets, so the monitored reverse paths are
	// exactly the paths the flows' forward packets ride. Both worlds run
	// the full Session — the norepair world detects and isolates but never
	// poisons — so the only difference between them is the poison.
	vantages := sample(rng, n.Gen.Stubs, 4)
	ses, reach := watchStubs(n, vantages, repair)

	// Vantages default to the monitored targets' ASes, in target order.
	gen, err := ses.AttachTraffic(lifeguard.TrafficConfig{
		Seed:  uint64(seed) ^ 0x7AFF1C,
		Flows: trafficFlows,
		Dests: trafficDests(n.Gen.Origin),
		Epoch: trafficEpoch,
		Churn: 0.02,
	})
	if err != nil {
		panic(fmt.Sprintf("traffic experiment: %v", err))
	}

	// Epochs close on the monitor's cadence, one event behind its round,
	// so an epoch's packets see any poison that round just installed.
	part := trafficPart{flows: gen.Flows()}
	var epoch func()
	epoch = func() {
		part.eps = append(part.eps, gen.RunEpoch())
		n.Clk.After(trafficEpoch, epoch)
	}
	n.Clk.After(trafficEpoch, epoch)

	rep, err := lifeguard.NewRig(n).RunChaos(trafficScript(n, vantages), chaos.Options{Obs: reg, Reach: reach})
	if err != nil {
		panic(fmt.Sprintf("traffic experiment: %v", err))
	}

	part.poisons = poisonsInstalled(ses)
	part.violations = len(rep.Violations)
	return part
}

// trafficScript injects the paper's canonical fault — an AS partway down
// the monitored reverse path silently blackholing everything toward the
// origin's block — for 20 minutes, then demands convergence back to
// baseline. The faulted AS is derived from routing state, identically in
// both repair worlds.
func trafficScript(n *lifeguard.Network, vantages []topo.ASN) *chaos.Script {
	origin := n.Gen.Origin
	avoid := map[topo.ASN]bool{origin: true}
	for _, m := range n.Top.Providers(origin) {
		avoid[m] = true
	}
	for _, v := range vantages {
		avoid[v] = true
	}
	var fault topo.ASN
	for _, v := range vantages {
		rev := n.Eng.ASPathTo(v, topo.ProductionAddr(origin))
		for _, a := range rev {
			if !avoid[a] {
				fault = a
				break
			}
		}
		if fault != 0 {
			break
		}
	}
	if fault == 0 {
		panic("traffic experiment: no faultable AS on any monitored reverse path")
	}
	var s chaos.Script
	s.Steps = append(s.Steps, chaos.Step{
		At:    5 * time.Minute,
		Fault: &chaos.BlackholeTowards{AS: fault, Dst: topo.Block(origin)},
		For:   20 * time.Minute,
	})
	s.Steps = append(s.Steps, chaos.Step{At: s.End() + 10*time.Minute, Check: true})
	return &s
}

func reduceTraffic(parts []trafficPart) *Result {
	r := newResult("traffic", "user-seconds lost through outage→repair, with and without LIFEGUARD")

	// Parts arrive in trial order: the repair world, then norepair.
	tab := &metrics.Table{
		Title:  "traffic — served user traffic vs repair (20-minute reverse-path blackhole)",
		Header: []string{"mode", "flows", "epochs", "packets", "availability", "user-seconds lost"},
	}
	var lost [2]int64
	poisons, violations := 0, 0
	for i, mode := range []string{"repair", "norepair"} {
		p := parts[i]
		sum := traffic.Summarize(p.eps)
		lost[i] = sum.UserSecondsLost
		poisons += p.poisons
		violations += p.violations
		tab.AddRow(mode, p.flows, sum.Epochs, sum.Packets,
			sum.Availability(), sum.UserSecondsLost)
		r.Values["user_seconds_lost_"+mode] = float64(sum.UserSecondsLost)
		r.Values["availability_"+mode] = sum.Availability()
	}
	r.addTable(tab)

	lostRepair, lostNone := lost[0], lost[1]
	flows := parts[0].flows
	r.Values["flows_total"] = float64(flows)
	r.Values["poisons_total"] = float64(poisons)
	r.Values["violations_total"] = float64(violations)
	if lostNone > 0 {
		r.Values["user_seconds_saved_frac"] = 1 - float64(lostRepair)/float64(lostNone)
	}

	r.notef("%d flows behind 4 vantage ASes, %d invariant violations (want 0); the same fault timeline costs %d user-seconds without repair and %d with the poison loop armed",
		flows, violations, lostNone, lostRepair)
	r.notef("the paper's Fig. 5/6 claim is exactly this contrast: locating and poisoning around a persistent reverse-path failure restores most of the outage's user traffic that waiting for the provider would forfeit")
	return r
}
