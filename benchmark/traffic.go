package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"lifeguard"
)

// The traffic workload scores the same outage the way users see it: a flow
// population behind the monitored targets exchanges packet pairs with the
// origin's production prefix every epoch while a reverse-path blackhole
// comes, is repaired around, and goes.
const (
	trafficTransit  = 60
	trafficStubs    = 240
	trafficTargets  = 8
	trafficFlows    = 150_000
	trafficDests    = 4
	trafficEpoch    = 30 * time.Second
	trafficChurn    = 0.02
	trafficEpochs   = 30 // per half cycle: failure in place, then healed
	trafficTailOK   = 5  // healed epochs at the end of a cycle that must lose nothing
	trafficSlice    = 5  // epochs between offers to yield in a paired run
	trafficMinFlows = 2_000
)

type trafficWorld struct {
	e    env
	d    *deployment
	fill fillStats
	rng  *rand.Rand // the run's stream: failure phase
	// phases holds the waits before the next cycles' failures. They are
	// stratified: each simWindows cycles cover the epoch in simWindows
	// equal slices, in seeded order and at a seeded point within the
	// slice. User-seconds are charged per whole epoch, so the phase
	// decides whether an outage costs n or n+1 epochs; independent draws
	// would leave that coin flip in the mean of a handful of cycles.
	phases []time.Duration
	gen    *lifeguard.TrafficGenerator
	sc     scenario
}

func trafficConfig(e env) lifeguard.InternetConfig {
	return lifeguard.InternetConfig{
		Seed:       datasetSeed,
		NumTransit: e.scaled(trafficTransit, 8),
		NumStub:    e.scaled(trafficStubs, 12),
	}
}

func buildTraffic(e env) (world, error) {
	for attempt := int64(0); attempt < buildAttempts; attempt++ {
		n, fill, err := buildInternet(e, trafficConfig(e))
		if err != nil {
			return nil, err
		}
		d, err := deploy(n, newRNG(datasetSeed, 200+attempt), n.Gen.Stubs, e.scaled(trafficTargets, 4))
		if err != nil {
			return nil, err
		}
		w := &trafficWorld{e: e, d: d, fill: fill, rng: newRNG(e.seed, 2)}
		w.gen, err = attachFlows(d, uint64(e.seed), e.scaled(trafficFlows, trafficMinFlows))
		if err != nil {
			return nil, err
		}
		// The warm-up cycle doubles as the selection: the first outage of
		// the cast whose full cycle passes its own checks is the
		// workload's. A refused repair leaves no poison behind, so the
		// next candidate starts from baseline.
		for _, sc := range candidateScenarios(n, d.origin, d.targets) {
			w.sc = sc
			if ws := w.window(); ws.failed == 0 {
				return w, nil
			}
			if d.s.Remedy.Active() != nil {
				break // a poison outlived its cycle; this cast is spoiled
			}
		}
	}
	return nil, fmt.Errorf("no cast in %d offers an outage the traffic cycle recovers from", buildAttempts)
}

// attachFlows puts a flow population behind the session's monitored targets
// (the default vantages), spread over several addresses of the origin's
// production /24.
func attachFlows(d *deployment, seed uint64, flows int) (*lifeguard.TrafficGenerator, error) {
	base := lifeguard.ProductionAddr(d.origin).As4()
	var dests []lifeguard.TrafficDest
	for i := 0; i < trafficDests; i++ {
		addr := netip.AddrFrom4([4]byte{base[0], base[1], base[2], byte(1 + i)})
		dests = append(dests, lifeguard.TrafficDest{Addr: addr, Weight: 1 + i%3})
	}
	return d.s.AttachTraffic(lifeguard.TrafficConfig{
		Seed: seed, Flows: flows, Dests: dests, Epoch: trafficEpoch, Churn: trafficChurn,
	})
}

// window is one outage cycle. Ops are data-plane packets.
func (w *trafficWorld) window() windowStats {
	var ws windowStats
	n, s := w.d.n, w.d.s
	mark := len(s.History)
	u0 := n.Eng.TotalUpdatesSent()
	flows := int64(w.gen.Flows())
	var lostUserSeconds, tailLost int64
	bad := false

	var sw *stopwatch
	epochs := func(k int, tail bool) {
		for i := 0; i < k; i++ {
			if i > 0 && i%trafficSlice == 0 {
				sw.yield()
			}
			runClock(w.e, n.Clk, trafficEpoch, "simclock.RunFor[epoch]", &ws)
			var rep lifeguard.TrafficEpochReport
			w.e.tr.do("traffic.RunEpoch", func() { rep = w.gen.RunEpoch() })
			ws.ops += int(rep.Packets)
			lostUserSeconds += rep.UserSecondsLost
			// Every flow sends; a reply follows each delivered request.
			if rep.Flows != flows || rep.Served+rep.Lost != flows ||
				rep.Packets < flows || rep.Packets > 2*flows ||
				(rep.Lost == 0 && rep.Packets != 2*flows) {
				bad = true
			}
			if tail && i >= k-trafficTailOK {
				tailLost += rep.Lost
			}
		}
	}

	sw = startWatch(w.e)
	opID := w.e.tr.beginOp()
	runClock(w.e, n.Clk, w.nextPhase(), "simclock.RunFor[phase]", &ws)
	var id lifeguard.FailureID
	w.e.tr.do("dataplane.InjectFailure", func() {
		id = n.InjectFailure(lifeguard.BlackholeASTowards(w.sc.blame, lifeguard.Block(w.d.origin)))
	})
	epochs(trafficEpochs, false)
	healedOK := false
	w.e.tr.do("dataplane.HealFailure", func() { healedOK = n.HealFailure(id) })
	sw.yield()
	epochs(trafficEpochs, true)
	w.e.tr.endOp(opID)
	sw.stop(&ws)

	ev := eventsSince(s, mark, n.RouterAddr(n.Hub(w.sc.target)))
	if bad || !healedOK || !ev.poisoned || !ev.unpoisoned || tailLost != 0 || lostUserSeconds == 0 {
		ws.failed = ws.ops
	}
	ws.updates = int64(n.Eng.TotalUpdatesSent() - u0)
	// Mean seconds of connectivity one user lost to this outage.
	ws.simLatency = []float64{float64(lostUserSeconds) / float64(flows)}
	return ws
}

func (w *trafficWorld) nextPhase() time.Duration {
	if len(w.phases) == 0 {
		slice := float64(trafficEpoch) / simWindows
		for _, k := range w.rng.Perm(simWindows) {
			w.phases = append(w.phases, time.Duration((float64(k)+w.rng.Float64())*slice))
		}
	}
	p := w.phases[0]
	w.phases = w.phases[1:]
	return p
}

func (w *trafficWorld) lab() (*labRig, error) {
	return &labRig{e: w.e, d: w.d, sc: w.sc, gen: w.gen, topo: trafficConfig(w.e), fill: w.fill}, nil
}
