package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lifeguard"
)

// The repair workload is the paper's pipeline end to end: a transit AS
// silently blackholes traffic toward the origin, the monitor detects it,
// isolation blames the AS, the remedy poisons it, BGP converges onto the
// alternate path, the monitored target recovers; then the failure heals,
// the sentinel notices, and the poison is withdrawn.
const (
	repairTransit   = 80
	repairStubs     = 320
	repairTargets   = 30
	repairScenarios = 8 // fewest distinct outages a cast must offer
	repairOutage    = 15 * time.Minute
	repairHealed    = 15 * time.Minute
)

// buildAttempts is how many casts (origin, vantage point, targets) a
// deployment workload tries, in a fixed order, before giving up. A cast is
// rejected when it offers too few outages the pipeline can actually repair.
const buildAttempts = 4

type repairWorld struct {
	e    env
	d    *deployment
	fill fillStats
	scen []scenario // every outage of the cast the pipeline repairs
	rng  *rand.Rand // the run's stream: op order and failure phase
}

func repairConfig(e env) lifeguard.InternetConfig {
	return lifeguard.InternetConfig{
		Seed:       datasetSeed,
		NumTransit: e.scaled(repairTransit, 8),
		NumStub:    e.scaled(repairStubs, 12),
	}
}

func buildRepair(e env) (world, error) {
	want := e.scaled(repairScenarios, 2)
	found := 0
	for attempt := int64(0); attempt < buildAttempts; attempt++ {
		n, fill, err := buildInternet(e, repairConfig(e))
		if err != nil {
			return nil, err
		}
		d, err := deploy(n, newRNG(datasetSeed, 100+attempt), n.Gen.Stubs, e.scaled(repairTargets, 6))
		if err != nil {
			return nil, err
		}
		w := &repairWorld{e: e, d: d, fill: fill, rng: newRNG(e.seed, 1)}
		// The warm-up window doubles as the selection: every statically
		// repairable outage of the cast is run once, and those the
		// pipeline repairs and withdraws cleanly make the op set. The
		// static test is necessary for a repair; the pipeline's own
		// verdict is sufficient. A refused repair leaves no poison
		// behind, so the world is at baseline either way.
		clean := true
		for _, sc := range candidateScenarios(n, d.origin, d.targets) {
			if _, ok := w.outage(sc, &windowStats{}); ok {
				w.scen = append(w.scen, sc)
			} else if d.s.Remedy.Active() != nil {
				clean = false // a poison outlived its op; this cast is spoiled
				break
			}
		}
		if clean && len(w.scen) >= want {
			return w, nil
		}
		found = max(found, len(w.scen))
	}
	return nil, fmt.Errorf("no cast in %d offers %d repairable outage scenarios (best %d)", buildAttempts, want, found)
}

// buildInternet generates the data set's synthetic Internet with every AS's
// /16 originated, and converges it with the run's engine seed. Traced, it
// also describes that convergence for the per-layer report (which costs two
// forced collections, so untraced set-up skips it).
func buildInternet(e env, cfg lifeguard.InternetConfig) (*lifeguard.Network, fillStats, error) {
	var fill fillStats
	var before map[string]int64
	if e.traced() {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		fill.heapBefore = m.HeapAlloc
	}
	n, err := lifeguard.GenerateInternet(cfg,
		lifeguard.NetworkOptions{Seed: e.seed, Obs: e.obs, SkipConverge: true})
	if err != nil {
		return nil, fill, err
	}
	if e.traced() {
		before = counters(e.obs)
	}
	id := e.tr.begin("bgp.Converge[table]")
	t0 := wallNow()
	ok := n.Converge()
	fill.wall = since(t0)
	e.tr.end(id)
	if !ok {
		return nil, fill, fmt.Errorf("initial BGP convergence did not complete")
	}
	if e.traced() {
		fill.finish(n, before, counters(e.obs))
	}
	return n, fill, nil
}

// outage runs one op — a seeded wait so the failure strikes anywhere in the
// monitor's cycle, inject, outage period, heal, healed period — and reports
// the virtual time from injection to the target's recovery and whether the
// op's checks held: the pipeline poisoned, the target recovered while the
// failure was still in place, and the poison was withdrawn after the heal.
func (w *repairWorld) outage(sc scenario, ws *windowStats) (time.Duration, bool) {
	n, s := w.d.n, w.d.s
	target := n.RouterAddr(n.Hub(sc.target))
	phase := time.Duration(w.rng.Int63n(int64(s.Monitor.Interval())))
	runClock(w.e, n.Clk, phase, "simclock.RunFor[phase]", ws)
	mark := len(s.History)
	t0 := n.Clk.Now()

	var id lifeguard.FailureID
	w.e.tr.do("dataplane.InjectFailure", func() {
		id = n.InjectFailure(lifeguard.BlackholeASTowards(sc.blame, lifeguard.Block(w.d.origin)))
	})
	runClock(w.e, n.Clk, repairOutage, "simclock.RunFor[outage]", ws)
	repaired := eventsSince(s, mark, target)
	healedOK := false
	w.e.tr.do("dataplane.HealFailure", func() { healedOK = n.HealFailure(id) })
	runClock(w.e, n.Clk, repairHealed, "simclock.RunFor[healed]", ws)
	after := eventsSince(s, mark, target)

	ok := healedOK && repaired.poisoned && repaired.recoveredAt > 0 && after.unpoisoned
	return repaired.recoveredAt - t0, ok
}

// window repairs every outage of the cast once, in seeded order.
func (w *repairWorld) window() windowStats {
	var ws windowStats
	eng := w.d.n.Eng
	u0 := eng.TotalUpdatesSent()
	sw := startWatch(w.e)
	for k, i := range w.rng.Perm(len(w.scen)) {
		if k > 0 {
			sw.yield()
		}
		opID := w.e.tr.beginOp()
		t0 := wallNow()
		lat, ok := w.outage(w.scen[i], &ws)
		ws.opWalls = append(ws.opWalls, since(t0))
		w.e.tr.endOp(opID)
		ws.ops++
		if !ok {
			ws.failed++
		}
		ws.simLatency = append(ws.simLatency, lat.Seconds())
	}
	sw.stop(&ws)
	ws.updates = int64(eng.TotalUpdatesSent() - u0)
	return ws
}

func (w *repairWorld) lab() (*labRig, error) {
	return &labRig{e: w.e, d: w.d, sc: w.scen[0], topo: repairConfig(w.e), fill: w.fill}, nil
}
