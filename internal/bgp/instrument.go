package bgp

import "lifeguard/internal/obs"

// engineObs bundles the engine's metric handles. The handles are fetched
// once at construction; with obs disabled (nil Config.Obs) every handle
// is nil and each instrumentation site costs exactly one branch — the
// determinism-neutrality contract means none of these counters may feed
// back into protocol behaviour.
type engineObs struct {
	updatesSent         *obs.Counter
	updatesReceived     *obs.Counter
	withdrawalsReceived *obs.Counter
	decisionRuns        *obs.Counter
	mraiDeferrals       *obs.Counter
	dampPenalties       *obs.Counter
	dampSuppressions    *obs.Counter
	locRIBRoutes        *obs.Gauge
	lpmNodes            *obs.Gauge
}

// speakerStats buffers one speaker's metric deltas for the duration of a
// barrier window. Workers may not touch the shared obs registry (its
// counters are not the hot path's bottleneck, but racing on them would
// still be a data race); each speaker accumulates locally and the merge
// step folds the deltas in deterministic speaker order.
type speakerStats struct {
	updatesSent         int64
	updatesReceived     int64
	withdrawalsReceived int64
	decisionRuns        int64
	mraiDeferrals       int64
	dampPenalties       int64
	dampSuppressions    int64
	locRIBRoutes        int64
	lpmNodes            int64
	// ribChanges is not a metric: it is the window's share of
	// Engine.ribVersion, buffered here for the same reason.
	ribChanges uint64
}

// flushStats folds a window's buffered deltas into the registry (and the
// RIB version) and resets the buffer.
func (e *Engine) flushStats(st *speakerStats) {
	e.ribVersion += st.ribChanges
	if st.updatesSent != 0 {
		e.obs.updatesSent.Add(st.updatesSent)
	}
	if st.updatesReceived != 0 {
		e.obs.updatesReceived.Add(st.updatesReceived)
	}
	if st.withdrawalsReceived != 0 {
		e.obs.withdrawalsReceived.Add(st.withdrawalsReceived)
	}
	if st.decisionRuns != 0 {
		e.obs.decisionRuns.Add(st.decisionRuns)
	}
	if st.mraiDeferrals != 0 {
		e.obs.mraiDeferrals.Add(st.mraiDeferrals)
	}
	if st.dampPenalties != 0 {
		e.obs.dampPenalties.Add(st.dampPenalties)
	}
	if st.dampSuppressions != 0 {
		e.obs.dampSuppressions.Add(st.dampSuppressions)
	}
	if st.locRIBRoutes != 0 {
		e.obs.locRIBRoutes.Add(st.locRIBRoutes)
	}
	if st.lpmNodes != 0 {
		e.obs.lpmNodes.Add(st.lpmNodes)
	}
	*st = speakerStats{}
}

func newEngineObs(reg *obs.Registry) engineObs {
	reg.Describe("lifeguard_bgp_updates_sent_total", "BGP update messages (announcements and withdrawals) sent engine-wide")
	reg.Describe("lifeguard_bgp_updates_received_total", "BGP update messages delivered to speakers")
	reg.Describe("lifeguard_bgp_withdrawals_received_total", "withdrawal messages delivered to speakers")
	reg.Describe("lifeguard_bgp_decision_runs_total", "runs of the per-prefix decision process")
	reg.Describe("lifeguard_bgp_mrai_deferrals_total", "updates batched behind an already-armed MRAI timer")
	reg.Describe("lifeguard_bgp_dampening_penalties_total", "RFC 2439 flap penalties applied")
	reg.Describe("lifeguard_bgp_dampening_suppressions_total", "routes newly suppressed by dampening")
	reg.Describe("lifeguard_bgp_locrib_routes", "selected routes across all loc-RIBs")
	reg.Describe("lifeguard_bgp_lpm_nodes", "live nodes across all compiled LPM tries")
	return engineObs{
		updatesSent:         reg.Counter("lifeguard_bgp_updates_sent_total"),
		updatesReceived:     reg.Counter("lifeguard_bgp_updates_received_total"),
		withdrawalsReceived: reg.Counter("lifeguard_bgp_withdrawals_received_total"),
		decisionRuns:        reg.Counter("lifeguard_bgp_decision_runs_total"),
		mraiDeferrals:       reg.Counter("lifeguard_bgp_mrai_deferrals_total"),
		dampPenalties:       reg.Counter("lifeguard_bgp_dampening_penalties_total"),
		dampSuppressions:    reg.Counter("lifeguard_bgp_dampening_suppressions_total"),
		locRIBRoutes:        reg.Gauge("lifeguard_bgp_locrib_routes"),
		lpmNodes:            reg.Gauge("lifeguard_bgp_lpm_nodes"),
	}
}
