package experiments

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"lifeguard"
	"lifeguard/internal/bgp"
	"lifeguard/internal/chaos"
	"lifeguard/internal/core/remedy"
	"lifeguard/internal/metrics"
	"lifeguard/internal/obs"
	"lifeguard/internal/outage"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// The chaos experiment stress-tests the full LIFEGUARD loop — monitor →
// isolation → remedy — against scripted fault timelines from
// internal/chaos, swept over fault intensity. Each trial builds a BGP-Mux
// deployment (a multihomed origin watching remote targets), schedules
// outage-calibrated faults on the monitored reverse paths, lets a
// lifeguard.Session race them with poisoning repairs, and runs the
// chaos invariant checker over the whole timeline: any route an AS forwards
// on that differs from refsolve's stable state (longest match included), or
// failure to converge back to baseline, is a violation, and the experiment
// demands zero.

// chaosIntensities are the fault-density multipliers swept (1.0 keeps the
// §2.1-calibrated 5-minute mean interarrival; 2.0 packs faults twice as
// tight, so repairs overlap and the one-repair-at-a-time engine saturates).
var chaosIntensities = []float64{0.5, 1, 2}

// chaosFaults is the number of scripted faults per intensity level.
const chaosFaults = 8

// chaosPart is one intensity level's trial outcome.
type chaosPart struct {
	intensity  float64
	faults     int
	violations int
	// episodes are monitor-declared outages (four consecutive failed ping
	// pairs, §2.1) on the monitored pairs; recovered counts those that
	// ended, repaired those that ended while a poison was active (the
	// repair beat the scripted heal), and ttrSum accumulates recovered
	// durations in seconds.
	episodes  int
	recovered int
	repaired  int
	ttrSum    float64
	// poisons counts repairs the remedy engine installed.
	poisons int
}

// watchStubs starts the shipped repair loop for n's origin: a Session whose
// one vantage point, the origin hub, watches the hub of each stub AS
// (pinging from the production prefix, so reply traffic rides the
// poisonable announcement). A short outage-age gate and a tight sentinel
// keep the loop responsive at the compressed timescales of a scripted run;
// repair=false makes it a pure observer. It returns after two atlas rounds,
// so isolation has reverse-path history, together with the reachability
// probes to assert at all-healed chaos barriers: the forward direction to
// every target, and the reverse direction back into the production prefix.
func watchStubs(n *lifeguard.Network, stubs []topo.ASN, repair bool) (*lifeguard.Session, []chaos.ReachProbe) {
	origin := n.Gen.Origin
	vp := n.Hub(origin)
	var targets []netip.Addr
	var reach []chaos.ReachProbe
	for _, t := range stubs {
		addr := n.RouterAddr(n.Hub(t))
		targets = append(targets, addr)
		reach = append(reach,
			chaos.ReachProbe{From: vp, To: addr},
			chaos.ReachProbe{From: n.Hub(t), To: topo.ProductionAddr(origin)})
	}
	ses := lifeguard.NewSystem(n, lifeguard.Config{
		Origin: origin, VPs: []topo.RouterID{vp}, Targets: targets,
		Remedy:            remedy.Config{MinOutageAge: time.Minute, SentinelInterval: time.Minute},
		DisableAutoRepair: !repair,
	})
	ses.Start()
	n.Clk.RunFor(16 * time.Minute)
	return ses, reach
}

// poisonsInstalled counts the poisons ses's repair loop announced. A
// watchStubs session poisons only through its outages' decisions, each of
// which keeps the poison it installed.
func poisonsInstalled(ses *lifeguard.Session) int {
	n := 0
	for _, o := range ses.Outages() {
		if o.Repair != nil {
			n++
		}
	}
	return n
}

func chaosTrial(seed int64, intensity float64, reg *obs.Registry) chaosPart {
	n, rng := world(seed, topogen.Config{NumTransit: 15, NumStub: 30}, 3, bgp.Config{}, reg)
	stubs := sample(rng, n.Gen.Stubs, 2)
	ses, reach := watchStubs(n, stubs, true)
	rep, err := lifeguard.NewRig(n).RunChaos(chaosScript(n, stubs, seed, intensity), chaos.Options{Obs: reg, Reach: reach})
	if err != nil {
		panic(fmt.Sprintf("chaos experiment: %v", err))
	}

	part := chaosPart{
		intensity:  intensity,
		faults:     rep.Faults,
		violations: len(rep.Violations),
		poisons:    poisonsInstalled(ses),
	}
	// A recovery while the target's own poison was still up means the
	// repair beat the scripted heal.
	for _, o := range ses.Outages() {
		part.episodes++
		if o.End > 0 {
			part.recovered++
			part.ttrSum += (o.End - o.Start).Seconds()
		}
		if o.PoisonUp {
			part.repaired++
		}
	}
	return part
}

// chaosScript builds the trial's fault timeline: outage-calibrated timing
// and kinds (internal/outage), with every fault placed on a monitored
// reverse path so the sweep measures the repair loop rather than fault
// placement luck. Silent faults (one-way drops, reverse blackholes,
// packet loss) are LIFEGUARD's target; full bidirectional link outages
// become visible session resets BGP heals on its own — the contrast case.
func chaosScript(n *lifeguard.Network, stubs []topo.ASN, seed int64, intensity float64) *chaos.Script {
	origin := n.Gen.Origin
	trialSeed := seed*31 + int64(intensity*8)
	events := outage.Generate(outage.Config{
		Seed: trialSeed,
		N:    chaosFaults,
		// 4–10 minute outages: long enough for detect→isolate→poison to
		// race the heal, short enough that the sweep stays minutes-scale.
		MinDuration:      4 * time.Minute,
		MaxDuration:      10 * time.Minute,
		MeanInterarrival: time.Duration(float64(5*time.Minute) / intensity),
	})
	rng := rand.New(rand.NewSource(trialSeed ^ 0x0C4A05))
	avoid := map[topo.ASN]bool{origin: true}
	for _, m := range n.Top.Providers(origin) {
		avoid[m] = true
	}
	for _, t := range stubs {
		avoid[t] = true
	}

	var s chaos.Script
	for _, ev := range events {
		target := stubs[rng.Intn(len(stubs))]
		// The reverse path the monitored replies ride, origin-side last.
		rev := n.Eng.ASPathTo(target, topo.ProductionAddr(origin))
		var cands []int
		for i, a := range rev {
			if !avoid[a] {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			continue // target sits directly behind a mux; nothing to fault
		}
		i := cands[rng.Intn(len(cands))]
		x := rev[i]
		next := origin
		if i+1 < len(rev) {
			next = rev[i+1]
		}

		var f chaos.Fault
		switch {
		case ev.Kind == outage.ASLink && n.Top.Adjacent(x, next):
			if ev.Direction == outage.Bidirectional && !ev.Partial {
				f = &chaos.SessionReset{A: x, B: next}
			} else {
				f = &chaos.OneWayLoss{From: x, To: next}
			}
		case ev.Partial:
			f = &chaos.PacketLoss{AS: x, Prob: 0.5 + 0.4*rng.Float64(), Seed: rng.Uint64()}
		default:
			f = &chaos.BlackholeTowards{AS: x, Dst: topo.Block(origin)}
		}
		s.Steps = append(s.Steps, chaos.Step{At: ev.Start, Fault: f, For: ev.Duration})
	}
	// One final barrier, far enough past the last heal for the sentinel
	// to withdraw any lingering poison before the baseline check.
	s.Steps = append(s.Steps, chaos.Step{At: s.End() + 10*time.Minute, Check: true})
	return &s
}

func reduceChaos(parts []chaosPart) *Result {
	r := newResult("chaos", "scripted fault timelines vs the repair loop")
	tab := &metrics.Table{
		Title:  "chaos — repair vs fault intensity (zero-violation contract)",
		Header: []string{"intensity", "faults", "episodes", "poisons", "repaired", "mean ttr (min)", "violations"},
	}
	var faults, episodes, recovered, repaired, poisons, violations int
	var ttrSum float64
	for _, c := range parts {
		mean := 0.0
		if c.recovered > 0 {
			mean = c.ttrSum / float64(c.recovered) / 60
		}
		tab.AddRow(fmt.Sprintf("%gx", c.intensity), c.faults, c.episodes,
			c.poisons, c.repaired, mean, c.violations)
		faults += c.faults
		episodes += c.episodes
		recovered += c.recovered
		repaired += c.repaired
		poisons += c.poisons
		violations += c.violations
		ttrSum += c.ttrSum
		r.Values[fmt.Sprintf("episodes_i%g", c.intensity)] = float64(c.episodes)
		r.Values[fmt.Sprintf("violations_i%g", c.intensity)] = float64(c.violations)
	}
	r.addTable(tab)

	r.Values["faults_total"] = float64(faults)
	r.Values["episodes_total"] = float64(episodes)
	r.Values["recovered_total"] = float64(recovered)
	r.Values["repaired_total"] = float64(repaired)
	r.Values["poisons_total"] = float64(poisons)
	r.Values["violations_total"] = float64(violations)
	if recovered > 0 {
		r.Values["ttr_mean_min"] = ttrSum / float64(recovered) / 60
	}
	if episodes > 0 {
		r.Values["recovered_frac"] = float64(recovered) / float64(episodes)
		r.Values["repaired_frac"] = float64(repaired) / float64(episodes)
	}

	r.notef("fault mix calibrated to the paper's §2.1 outage study (durations, link share); %d faults injected, %d invariant violations (want 0)",
		faults, violations)
	r.notef("the repair loop poisoned %d times across %d reachability episodes and beat the scripted heal in %d; paper §4.2 gates poisoning on outage age and alternate-path existence",
		poisons, episodes, repaired)
	return r
}
