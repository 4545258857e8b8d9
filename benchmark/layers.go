package main

import (
	"fmt"
	"runtime"
	"time"

	"lifeguard"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topogen"
)

// The per-layer numbers of a traced run.
//
// The layers nest inside simclock: a monitor round is a scheduler callback
// that pings, a ping forwards packets, forwarding looks routes up. From
// outside the program the benchmark cannot bracket those calls in place.
// So a traced run takes, per op, how many times each layer ran — from the
// public obs counters and from stepping the scheduler itself — and then,
// on the same live world, calls each layer's public entry point directly
// with inputs the workload used, to learn what one call costs. The obs
// counters also say how many calls into lower layers one call made, and
// those are subtracted, so a unit cost is the layer's own:
//
//	share(layer) = calls per op × self cost per call ÷ host time per op
//
// Calls the benchmark itself makes into a layer (Converge, RunEpoch, the
// Lookup sweep) are spans and are measured in place instead.

// labRig is the live world the unit costs are measured on.
type labRig struct {
	e    env
	d    *deployment
	sc   scenario                    // an outage that can be injected
	gen  *lifeguard.TrafficGenerator // nil: the lab attaches a small one
	topo lifeguard.InternetConfig    // what topogen.generate_ms generates
	fill fillStats
}

// fillStats describes the full-table convergence of the world's set-up.
type fillStats struct {
	wall                  time.Duration
	routes, adj           int
	updates, decisions    int64
	arenaPaths            int
	heapBefore, heapAfter uint64 // post-GC HeapAlloc around the fill
}

// unit is the measured cost of one call.
type unit struct {
	ns     float64          // median over batches of wall ÷ calls, nanoseconds
	allocs float64          // mallocs per call
	calls  int              // calls made in all
	delta  map[string]int64 // obs counter deltas over all calls
}

// per is how many times counter key (prefix match) moved per call.
func (u unit) per(prefix string) float64 {
	if u.calls == 0 {
		return 0
	}
	return float64(sumPrefix(u.delta, prefix)) / float64(u.calls)
}

const (
	unitBatches   = 10
	unitMaxCalls  = 1000                   // in all, or
	unitMaxWall   = 500 * time.Millisecond // in all, whichever comes first
	fwdCounter    = "lifeguard_dataplane_packets_forwarded_total"
	trafficPkts   = "lifeguard_traffic_packets_total"
	probeCounter  = "lifeguard_probe_probes_total"
	probePackets  = "lifeguard_probe_packets_total"
	updatesSent   = "lifeguard_bgp_updates_sent_total"
	decisionRuns  = "lifeguard_bgp_decision_runs_total"
	mraiDeferrals = "lifeguard_bgp_mrai_deferrals_total"
)

// measure calls f in unitBatches batches — each of at most a tenth of the
// call and time budgets — and reports the median per-call cost over batches.
func (l *labRig) measure(name string, f func(i int)) unit {
	before := counters(l.e.obs)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var per []float64
	calls := 0
	for b := 0; b < unitBatches; b++ {
		id := l.e.tr.begin(name)
		t0 := wallNow()
		n := 0
		for n == 0 || (n < unitMaxCalls/unitBatches && since(t0) < unitMaxWall/unitBatches) {
			f(calls + n)
			n++
		}
		d := since(t0)
		l.e.tr.end(id)
		l.e.tr.spans[id].Calls = n
		per = append(per, float64(d)/float64(n))
		calls += n
	}
	runtime.ReadMemStats(&m1)
	u := unit{ns: median(per), calls: calls, delta: make(map[string]int64)}
	u.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(calls)
	for k, v := range counters(l.e.obs) {
		if dv := v - before[k]; dv != 0 {
			u.delta[k] = dv
		}
	}
	return u
}

// layerCosts is everything the lab measured.
type layerCosts struct {
	forward, ping, traceroute, revtr unit
	round, refresh, isolate          unit
	epoch                            unit
	epochPackets                     float64 // packets per lab epoch
	lostFracOutage                   float64
	poison                           unit
	poisonSteps                      float64 // scheduler events per poison convergence
	lookupHot, lookupCold            float64 // ns per Lookup
	lpmNodes                         int64
	eventNs                          float64
	generateNs                       float64
	scaleSlowdown                    float64
	pairs                            int // monitored (vp, target) pairs per round
}

// run measures every layer, cheapest and least disturbing first: the BGP
// poison cycles advance virtual time, so they run last, with the session
// stopped so its timers do not fire inside them.
func (l *labRig) run(queueLen int) (*layerCosts, error) {
	n, s, d := l.d.n, l.d.s, l.d
	c := &layerCosts{pairs: len(d.vps) * len(d.targets)}
	vp := d.vps[0]
	vpAddr := n.RouterAddr(vp)
	hub := func(i int) lifeguard.RouterID { return n.Hub(d.targets[i%len(d.targets)]) }
	addr := func(i int) lifeguard.Addr { return n.RouterAddr(hub(i)) }

	c.forward = l.measure("dataplane.Forward", func(i int) {
		if i%2 == 0 {
			n.Plane.Forward(vp, dataplane.Packet{Src: vpAddr, Dst: addr(i / 2)})
		} else {
			n.Plane.Forward(hub(i/2), dataplane.Packet{Src: addr(i / 2), Dst: vpAddr})
		}
	})
	c.ping = l.measure("probe.Ping", func(i int) { n.Prober.Ping(vp, addr(i)) })
	c.traceroute = l.measure("probe.Traceroute", func(i int) { n.Prober.Traceroute(vp, addr(i)) })
	c.revtr = l.measure("probe.ReverseTraceroute", func(i int) { n.Prober.ReverseTraceroute(hub(i), vp) })
	c.round = l.measure("monitor.Round", func(int) { s.Monitor.Round() })
	c.refresh = l.measure("atlas.RefreshAll", func(int) { s.Atlas.RefreshAll() })

	target := n.RouterAddr(n.Hub(l.sc.target))
	fail := lifeguard.BlackholeASTowards(l.sc.blame, lifeguard.Block(d.origin))
	id := n.InjectFailure(fail)
	c.isolate = l.measure("isolation.Isolate", func(int) { s.Isolator.Isolate(vp, target) })
	n.HealFailure(id)

	gen := l.gen
	if gen == nil {
		var err error
		if gen, err = attachFlows(d, uint64(l.e.seed), l.e.scaled(50_000, trafficMinFlows)); err != nil {
			return nil, fmt.Errorf("lab: attach flows: %w", err)
		}
	}
	gen.RunEpoch() // first epoch after attach or a route change rebuilds caches
	var packets int64
	c.epoch = l.measure("traffic.RunEpoch", func(int) { packets += gen.RunEpoch().Packets })
	c.epochPackets = float64(packets) / float64(c.epoch.calls)
	id = n.InjectFailure(fail)
	rep := gen.RunEpoch()
	n.HealFailure(id)
	c.lostFracOutage = float64(rep.Lost) / float64(rep.Flows)
	gen.RunEpoch()

	// BGP: poison l.sc.blame on the target's own block and take it back,
	// on the populated table; after each convergence, read the block
	// from every AS once cold (lazy LPM recompiles) and once hot.
	s.Stop()
	asns := n.Top.ASNs()
	o := l.sc.target
	pfx, oaddr := lifeguard.Block(o), lifeguard.ProductionAddr(o)
	var cold, hot []float64
	var steps int64
	sweep := func(name string) float64 { // ns per Lookup, one from every AS
		id := l.e.tr.begin(name)
		defer l.e.tr.end(id)
		t0 := wallNow()
		for _, a := range asns {
			n.Eng.Lookup(a, oaddr)
		}
		return float64(since(t0)) / float64(len(asns))
	}
	c.poison = l.measure("bgp.Announce+Converge", func(i int) {
		cfg := lifeguard.OriginConfig{}
		if i%2 == 0 {
			cfg.Pattern = lifeguard.Path{o, l.sc.blame, o}
		}
		var ws windowStats
		n.Eng.Announce(o, pfx, cfg)
		if !converge(l.e, n.Eng, n.Clk, &ws, nil) {
			return
		}
		steps += ws.steps
		cold = append(cold, sweep("bgp.Lookup[cold]"))
		hot = append(hot, sweep("bgp.Lookup[hot]"))
	})
	if c.poison.calls%2 == 1 { // leave the block at its baseline
		n.Eng.Announce(o, pfx, lifeguard.OriginConfig{})
		n.Eng.Converge(convergeBudget)
	}
	c.poisonSteps = float64(steps) / float64(c.poison.calls)
	c.lookupCold, c.lookupHot = median(cold), median(hot)
	// The sweeps sit inside the measured call; take them back out.
	c.poison.ns -= float64(len(asns)) * (c.lookupCold + c.lookupHot)
	c.lpmNodes = counters(l.e.obs)["lifeguard_bgp_lpm_nodes"]

	c.eventNs = l.eventCost(queueLen)

	var gens []float64
	for i := 0; i < 3; i++ {
		t0 := wallNow()
		l.e.tr.do("topogen.Generate", func() { _, _ = topogen.Generate(l.topo) })
		gens = append(gens, float64(since(t0)))
	}
	c.generateNs = median(gens)

	c.scaleSlowdown = l.scaleSlowdown()
	return c, nil
}

// eventCost is what scheduling and running one no-op event costs on a
// scheduler whose queue is as long as the workload's was on average.
func (l *labRig) eventCost(queueLen int) float64 {
	clk := simclock.New()
	noop := func() {}
	for i := 0; i < queueLen; i++ {
		clk.After(time.Duration(1+i)*time.Hour, noop)
	}
	const batch = 20_000
	var per []float64
	for b := 0; b < unitBatches; b++ {
		id := l.e.tr.begin("simclock.After+Step")
		t0 := wallNow()
		for i := 0; i < batch; i++ {
			clk.After(0, noop)
			clk.Step()
		}
		per = append(per, float64(since(t0))/batch)
		l.e.tr.end(id)
		l.e.tr.spans[id].Calls = batch
	}
	return median(per)
}

// scaleSlowdown is the host time per installed route of a fill at 2 000
// ASes over that at 1 000 ASes (50 prefixes each, median of three fills
// apiece): how much more a route costs as the Internet grows.
func (l *labRig) scaleSlowdown() float64 {
	id := l.e.tr.begin("bgp.scale[1k,2k]")
	defer l.e.tr.end(id)
	e := env{seed: l.e.seed, scale: l.e.scale} // untraced: these fills are not the workload's
	perRoute := func(transit, stubs int) float64 {
		t, err := newTable(e, transit, stubs, 50)
		if err != nil {
			return 0
		}
		var walls []float64
		for i := 0; i < 3; i++ {
			t.eng, t.clk = nil, nil
			runtime.GC()
			var ws windowStats
			t.fill(&ws)
			walls = append(walls, float64(ws.wall)/float64(len(t.asns)*len(t.prefixes)))
		}
		return median(walls)
	}
	small := perRoute(tableTransit, tableStubs)
	if small == 0 {
		return 0
	}
	return perRoute(2*tableTransit, 2*tableStubs+5) / small
}

// tableLab turns an engine-only table world into a full rig for the lab: the
// same topology and prefixes assembled through the facade, which adds the
// data plane and prober, plus a session cast from the originating stubs
// (only their blocks are routed).
func tableLab(t *table) (*labRig, error) {
	e := t.e
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	fill := fillStats{heapBefore: m.HeapAlloc}
	n, err := lifeguard.AssembleNetwork(t.gen.Top, lifeguard.NetworkOptions{
		Seed: e.seed, Obs: e.obs, OriginateBlocks: t.origins, SkipConverge: true,
	})
	if err != nil {
		return nil, err
	}
	n.Gen = t.gen
	before := counters(e.obs)
	t0 := wallNow()
	if !n.Converge() {
		return nil, fmt.Errorf("lab: table did not converge")
	}
	fill.wall = since(t0)
	fill.finish(n, before, counters(e.obs))

	d, err := deploy(n, newRNG(datasetSeed, 302), t.origins, e.scaled(trafficTargets, 4))
	if err != nil {
		return nil, err
	}
	cands := candidateScenarios(n, d.origin, d.targets)
	if len(cands) == 0 {
		return nil, fmt.Errorf("lab: no injectable outage among the table's stubs")
	}
	return &labRig{e: e, d: d, sc: cands[0], topo: t.cfg, fill: fill}, nil
}

// finish fills in what the table looks like after its convergence.
func (f *fillStats) finish(n *lifeguard.Network, before, after map[string]int64) {
	f.routes, f.adj = n.Eng.RIBSizes()
	f.arenaPaths = n.Eng.PathArenaSize()
	f.updates = after[updatesSent] - before[updatesSent]
	f.decisions = after[decisionRuns] - before[decisionRuns]
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	f.heapAfter = m.HeapAlloc
}
