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
	idleTicks           *obs.Counter
	dampPenalties       *obs.Counter
	dampSuppressions    *obs.Counter
	locRIBRoutes        *obs.Gauge
	lpmNodes            *obs.Gauge
}

func newEngineObs(reg *obs.Registry) engineObs {
	reg.Describe("lifeguard_bgp_updates_sent_total", "BGP update messages (announcements and withdrawals) sent engine-wide")
	reg.Describe("lifeguard_bgp_updates_received_total", "BGP update messages delivered to speakers")
	reg.Describe("lifeguard_bgp_withdrawals_received_total", "withdrawal messages delivered to speakers")
	reg.Describe("lifeguard_bgp_decision_runs_total", "runs of the per-prefix decision process")
	reg.Describe("lifeguard_bgp_mrai_deferrals_total", "kicks of a neighbor session, with or without news, that found its timer armed or a remembered idle tick still ahead")
	reg.Describe("lifeguard_bgp_idle_ticks_total", "phase ticks drawn for a session with nothing to send; no event is scheduled for them")
	reg.Describe("lifeguard_bgp_dampening_penalties_total", "RFC 2439 flap penalties applied")
	reg.Describe("lifeguard_bgp_dampening_suppressions_total", "routes newly suppressed by dampening")
	reg.Describe("lifeguard_bgp_locrib_routes", "selected routes across all loc-RIBs")
	reg.Describe("lifeguard_bgp_lpm_nodes", "nodes of the engine's longest-prefix-match trie over every interned prefix")
	return engineObs{
		updatesSent:         reg.Counter("lifeguard_bgp_updates_sent_total"),
		updatesReceived:     reg.Counter("lifeguard_bgp_updates_received_total"),
		withdrawalsReceived: reg.Counter("lifeguard_bgp_withdrawals_received_total"),
		decisionRuns:        reg.Counter("lifeguard_bgp_decision_runs_total"),
		mraiDeferrals:       reg.Counter("lifeguard_bgp_mrai_deferrals_total"),
		idleTicks:           reg.Counter("lifeguard_bgp_idle_ticks_total"),
		dampPenalties:       reg.Counter("lifeguard_bgp_dampening_penalties_total"),
		dampSuppressions:    reg.Counter("lifeguard_bgp_dampening_suppressions_total"),
		locRIBRoutes:        reg.Gauge("lifeguard_bgp_locrib_routes"),
		lpmNodes:            reg.Gauge("lifeguard_bgp_lpm_nodes"),
	}
}
