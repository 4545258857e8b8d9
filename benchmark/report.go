package main

import (
	"strings"
	"time"
)

// meanQueueLen is the scheduler's mean pending-event count over the events
// the traced windows stepped.
func (p *phase) meanQueueLen() int {
	var steps, sum int64
	for _, w := range p.windows {
		steps += w.steps
		sum += w.lenSum
	}
	if steps == 0 {
		return 0
	}
	return int(sum / steps)
}

// layerMetrics turns a traced phase, the lab's unit costs and the span
// record into the per-layer metrics of BENCHMARK.json. Every workload
// reports every one; a layer the workload does not reach reports a count and
// a share of zero, and its unit cost as measured on the workload's world.
func layerMetrics(p *phase, f fillStats, c *layerCosts, spans []span) map[string]metric {
	ops, _ := p.totals()
	fops := float64(ops)
	opNs := float64(p.host.timedWall) / fops
	perOp := func(prefix string) float64 {
		return float64(sumPrefix(p.after, prefix)-sumPrefix(p.before, prefix)) / fops
	}
	var steps int64
	var bytes uint64
	for _, w := range p.windows {
		steps += w.steps
		bytes += w.bytes
	}
	stepsPerOp := float64(steps) / fops

	// Self time, by layer, of the calls the benchmark made itself inside
	// ops, and the ops' total time. Both include the warm-up window's ops,
	// which do the same work, so their ratio is the timed windows' too.
	direct := make(map[string]time.Duration)
	var opTime time.Duration
	for i, self := range spanSelf(spans) {
		if s := spans[i]; s.Name == "op" {
			opTime += time.Duration(s.End - s.Start)
		} else if s.Op > 0 {
			layer, _, _ := strings.Cut(s.Name, ".")
			direct[layer] += self
		}
	}
	directShare := func(layer string) float64 {
		if opTime == 0 {
			return 0
		}
		return float64(direct[layer]) / float64(opTime)
	}

	// Self costs: a call's wall less the calls it made further down.
	fwd := c.forward.ns
	pingSelf := selfCost(c.ping.ns, nestedCalls{c.ping.per(fwdCounter), fwd})
	trSelf := selfCost(c.traceroute.ns, nestedCalls{c.traceroute.per(fwdCounter), fwd})
	revSelf := selfCost(c.revtr.ns, nestedCalls{c.revtr.per(fwdCounter), fwd})
	pingsPerRound := c.round.per(probeCounter)
	roundSelf := selfCost(c.round.ns, nestedCalls{pingsPerRound, c.ping.ns})
	isolateSelf := selfCost(c.isolate.ns,
		nestedCalls{c.isolate.per(probeCounter + "{primitive=ping}"), c.ping.ns},
		nestedCalls{c.isolate.per(probeCounter + "{primitive=spoofed-ping}"), c.ping.ns},
		nestedCalls{c.isolate.per(probeCounter + "{primitive=traceroute}"), c.traceroute.ns},
		nestedCalls{c.isolate.per(probeCounter + "{primitive=spoofed-traceroute}"), c.traceroute.ns},
		nestedCalls{c.isolate.per(probeCounter + "{primitive=reverse-traceroute}"), c.revtr.ns})
	updatesPerPoison := c.poison.per(updatesSent)
	var updateSelf float64
	if updatesPerPoison > 0 {
		updateSelf = selfCost(c.poison.ns, nestedCalls{c.poisonSteps, c.eventNs}) / updatesPerPoison
	}

	// Counts per op.
	trafficPackets := perOp(trafficPkts)
	forwards := perOp(fwdCounter) - trafficPackets // the batch path counts its packets there too
	if forwards < 0 {
		forwards = 0
	}
	pings := perOp(probeCounter+"{primitive=ping}") + perOp(probeCounter+"{primitive=spoofed-ping}") +
		perOp(probeCounter+"{primitive=ping-from-addr}")
	traceroutes := perOp(probeCounter+"{primitive=traceroute}") + perOp(probeCounter+"{primitive=spoofed-traceroute}")
	revtrs := perOp(probeCounter + "{primitive=reverse-traceroute}")
	pairRounds := perOp("lifeguard_monitor_ping_rounds_total")
	isoRuns := perOp("lifeguard_isolation_runs_total")
	epochs := perOp("lifeguard_traffic_epochs_total")
	updates := perOp(updatesSent)

	// Shares. Table workloads call bgp directly (spans); deployments reach
	// it only under simclock.RunFor (updates × cost of one).
	simclockShare := share(stepsPerOp, c.eventNs, opNs)
	bgpShare := directShare("bgp")
	if bgpShare > 0 {
		bgpShare -= simclockShare // Converge spans contain the events they stepped
	} else {
		bgpShare = share(updates, updateSelf, opNs)
	}
	shares := map[string]float64{
		"simclock":  simclockShare,
		"bgp":       bgpShare,
		"dataplane": share(forwards, fwd, opNs),
		"probe":     share(pings, pingSelf, opNs) + share(traceroutes, trSelf, opNs) + share(revtrs, revSelf, opNs),
		"monitor":   share(pairRounds, roundSelf/float64(c.pairs), opNs),
		"isolation": share(isoRuns, isolateSelf, opNs),
		"traffic":   directShare("traffic"),
	}
	unattributed := 1.0
	for _, v := range shares {
		unattributed -= v
	}

	us := func(ns float64) float64 { return ns / 1e3 }
	ms := func(ns float64) float64 { return ns / 1e6 }
	routes := float64(max(f.routes, 1))
	out := map[string]metric{
		"simclock.event_ns":      {c.eventNs, "ns"},
		"simclock.events_per_op": {stepsPerOp, "count"},
		"simclock.queue_len":     {float64(p.meanQueueLen()), "count"},

		"bgp.route_us":                  {us(float64(f.wall)) / routes, "us"},
		"bgp.updates_per_route":         {float64(f.updates) / routes, "count"},
		"bgp.decisions_per_route":       {float64(f.decisions) / routes, "count"},
		"bgp.arena_paths":               {float64(f.arenaPaths), "count"},
		"bgp.adjrib_per_route":          {float64(f.adj) / routes, "count"},
		"bgp.heap_mb_per_kroute":        {(float64(f.heapAfter) - float64(f.heapBefore)) / (1 << 20) / (routes / 1000), "MB"},
		"bgp.scale_slowdown_2k":         {c.scaleSlowdown, "ratio"},
		"bgp.poison_converge_ms":        {ms(c.poison.ns), "ms"},
		"bgp.updates_per_poison":        {updatesPerPoison, "count"},
		"bgp.mrai_deferrals_per_poison": {c.poison.per(mraiDeferrals), "count"},
		"bgp.update_us":                 {us(updateSelf), "us"},
		"bgp.updates_per_op":            {updates, "count"},
		"bgp.decisions_per_op":          {perOp(decisionRuns), "count"},
		"bgp.mrai_deferrals_per_op":     {perOp(mraiDeferrals), "count"},
		"bgp.lookup_ns":                 {c.lookupHot, "ns"},
		"bgp.lookup_cold_us":            {us(c.lookupCold), "us"},
		"bgp.lpm_nodes":                 {float64(c.lpmNodes), "count"},

		"dataplane.forward_ns":      {fwd, "ns"},
		"dataplane.forward_allocs":  {c.forward.allocs, "count"},
		"dataplane.forwards_per_op": {forwards, "count"},
		"dataplane.drops_per_op":    {perOp("lifeguard_dataplane_packets_dropped_total"), "count"},

		"traffic.ns_per_packet":    {c.epoch.ns / max(c.epochPackets, 1), "ns"},
		"traffic.epoch_ms":         {ms(c.epoch.ns), "ms"},
		"traffic.allocs_per_epoch": {c.epoch.allocs, "count"},
		"traffic.lost_frac_outage": {c.lostFracOutage, "frac"},
		"traffic.epochs_per_op":    {epochs, "count"},

		"probe.ping_us":        {us(c.ping.ns), "us"},
		"probe.traceroute_us":  {us(c.traceroute.ns), "us"},
		"probe.revtr_us":       {us(c.revtr.ns), "us"},
		"probe.packets_per_op": {perOp(probePackets), "count"},
		"probe.probes_per_op":  {pings + traceroutes + revtrs, "count"},

		"monitor.round_ms":      {ms(c.round.ns), "ms"},
		"monitor.rounds_per_op": {pairRounds, "count"},

		"atlas.refresh_ms": {ms(c.refresh.ns), "ms"},

		"isolation.isolate_ms":     {ms(c.isolate.ns), "ms"},
		"isolation.probes_per_run": {c.isolate.per("lifeguard_isolation_probes_total"), "count"},
		"isolation.runs_per_op":    {isoRuns, "count"},

		"remedy.poisons_per_op":         {perOp("lifeguard_remedy_poisons_total"), "count"},
		"remedy.sentinel_checks_per_op": {perOp("lifeguard_remedy_sentinel_checks_total"), "count"},

		"topogen.generate_ms": {ms(c.generateNs), "ms"},

		"host.gc_cpu_frac":       {p.host.gcCPUFrac, "frac"},
		"host.gc_cycles_per_op":  {float64(p.host.gcCycles) / fops, "count"},
		"host.bytes_per_op":      {float64(bytes) / fops, "B"},
		"host.heap_live_mb":      {p.host.heapLiveMB, "MB"},
		"host.op_ms_p95":         {p.opWallP95(), "ms"},
		"host.unattributed_frac": {unattributed, "frac"},
	}
	for layer, v := range shares {
		out[layer+".share"] = metric{v, "frac"}
	}
	return out
}
