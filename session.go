package lifeguard

import (
	"fmt"
	"net/netip"
	"time"

	"lifeguard/internal/atlas"
	"lifeguard/internal/bgp"
	"lifeguard/internal/collectors"
	"lifeguard/internal/core/isolation"
	"lifeguard/internal/core/remedy"
	"lifeguard/internal/hijack"
	"lifeguard/internal/monitor"
	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// FailsafeMaxDelay is the failsafe watchdog's detection bound: the longest
// a monitor loss goes unnoticed, measured from the last completed round.
// The contract mirrors the failsafe-timing specification the design docs
// cite: three missed 30 s monitor rounds plus 5 s of grace for in-flight
// probe latency, 3 × 30 s + 5 s = 95 s, before the FAILSAFE journal entry.
// While in FAILSAFE the session suspends repair actions (poisoning on stale
// reachability data is worse than not poisoning) and exits on the first
// completed round after the monitor returns.
const FailsafeMaxDelay = 3*30*time.Second + 5*time.Second

// HijackConfig enables the ARTEMIS-style hijack plane for a session: a
// route-collector view feeding a detector, and an auto-responder that
// counter-announces and verifies recovery from the origin's providers.
type HijackConfig struct {
	// Enable turns the hijack plane on. Off (the zero value), a session
	// behaves exactly as before this subsystem existed.
	Enable bool
	// CollectorPeers are the ASes whose best-route streams the detector
	// consumes — the RouteViews/RIS peer set. Default: the origin's
	// providers.
	CollectorPeers []ASN
}

// Config is the part of a session's configuration that predates tenants:
// what to monitor, from where, and how the subsystems are tuned.
type Config struct {
	// Origin is the AS whose prefixes LIFEGUARD manages.
	Origin ASN
	// VPs are the vantage-point routers used for monitoring and
	// isolation (the PlanetLab role in the paper).
	VPs []RouterID
	// Targets are the destinations monitored for reachability.
	Targets []netip.Addr

	// Remedy tunes the repair engine; zero values select paper-calibrated
	// defaults.
	Remedy remedy.Config

	// DisableAutoRepair turns the system into a pure observer: outages
	// are detected and isolated but never poisoned.
	DisableAutoRepair bool
}

// SessionConfig parameterizes one tenant's Session over a shared Rig.
type SessionConfig struct {
	Config

	// Hijack enables and tunes the session's hijack detection/mitigation
	// plane.
	Hijack HijackConfig

	// Tenant labels the session's obs partition and journal records.
	// Defaults to "AS<origin>". NewSystem leaves it empty: metrics stay
	// unscoped and journal records keep the historical "system" subsystem.
	Tenant string

	// NoGracefulRestart disables graceful-restart semantics for
	// CrashControl/Restart: the crash then withdraws every announcement
	// the origin had installed and re-announces on restore, so remote
	// routers lose their routes for the duration — the classic restart
	// behaviour graceful restart exists to avoid. The zero value (graceful
	// on) is the production default.
	NoGracefulRestart bool
}

// Session is one tenant of a Rig: an origin AS's monitor → isolation →
// repair pipeline, with its own event history and obs partition, sharing
// the Rig's internetwork and clock with every other session. The
// control-plane lifecycle (Start/Stop/CrashControl/RestoreControl/Restart)
// is decoupled from the data plane: the tenant's announced routes — and so
// the forwarding of its traffic — survive a control crash when graceful
// restart is on.
type Session struct {
	Net      *Network
	Atlas    *atlas.Atlas
	Monitor  *monitor.Monitor
	Isolator *isolation.Isolator
	Remedy   *remedy.Controller

	// Collector, Hijack and HijackResponder form the session's hijack
	// plane; all nil unless SessionConfig.Hijack.Enable was set.
	Collector       *collectors.Collector
	Hijack          *hijack.Detector
	HijackResponder *hijack.Responder

	// Traffic is the session's flow-population generator; nil until
	// AttachTraffic wires one.
	Traffic *TrafficGenerator

	cfg SessionConfig

	// History records everything the session did.
	History []Event

	// Obs is the session's metrics partition: a child view of the
	// network's registry scoped by tenant, the network registry itself for
	// an unlabelled (compat) session, or nil when uninstrumented.
	Obs *obs.Registry

	started bool
	crashed bool

	// Graceful-restart state: announcements captured at a non-graceful
	// crash, replayed on restore.
	savedOrigins []bgp.OriginAnnouncement

	// Failsafe watchdog state.
	failsafe  bool
	lastRound time.Duration
	watchdog  simclock.EventID
}

// EventKind classifies Session history entries.
type EventKind int

// Session event kinds. New kinds are appended — the numeric values of
// existing kinds are part of the journal compatibility surface.
const (
	EventOutage EventKind = iota
	EventIsolated
	EventRepair
	EventUnpoison
	EventRecovered
	EventControlCrash
	EventControlRestore
	EventFailsafeEnter
	EventFailsafeExit
	EventHijackDetected
	EventHijackMitigated
	EventHijackCleared
)

// String names the event kind. Unknown values render as "eventkind(N)" —
// stable across enum growth, so forward-compatible consumers can log them
// without aliasing distinct unknown kinds to one string.
func (k EventKind) String() string {
	switch k {
	case EventOutage:
		return "outage"
	case EventIsolated:
		return "isolated"
	case EventRepair:
		return "repair"
	case EventUnpoison:
		return "unpoison"
	case EventRecovered:
		return "recovered"
	case EventControlCrash:
		return "control-crash"
	case EventControlRestore:
		return "control-restore"
	case EventFailsafeEnter:
		return "failsafe-enter"
	case EventFailsafeExit:
		return "failsafe-exit"
	case EventHijackDetected:
		return "hijack-detected"
	case EventHijackMitigated:
		return "hijack-mitigated"
	case EventHijackCleared:
		return "hijack-cleared"
	default:
		return fmt.Sprintf("eventkind(%d)", int(k))
	}
}

// Event is one entry of a session's history log.
type Event struct {
	At     time.Duration
	Kind   EventKind
	VP     RouterID
	Target netip.Addr
	// Report is set for EventIsolated.
	Report *isolation.Report
	// Action is set for EventRepair (it may be a refusal such as
	// NoAlternate).
	Action remedy.Action
	// Avoided is set for EventRepair/EventUnpoison when a poison was
	// involved.
	Avoided ASN
	// Alarm is set for the hijack events (EventHijackDetected, -Mitigated,
	// -Cleared); Mitigation additionally for EventHijackMitigated.
	Alarm      *hijack.Alarm
	Mitigation *hijack.Mitigation
}

// newSession wires a session over the network without starting it.
func newSession(n *Network, cfg SessionConfig) *Session {
	cfg.Remedy.Origin = cfg.Origin
	s := &Session{Net: n, cfg: cfg}

	s.Obs = n.Obs
	if cfg.Tenant != "" {
		s.Obs = n.Obs.Child(obs.L("tenant", cfg.Tenant))
	}

	s.Atlas = atlas.New(n.Top, n.Prober, n.Clk)
	for _, vp := range cfg.VPs {
		s.Atlas.AddVP(vp)
	}
	for _, t := range cfg.Targets {
		s.Atlas.AddTarget(t)
	}

	s.Monitor = monitor.New(n.Prober, n.Clk)
	s.Monitor.Atlas = s.Atlas
	for _, vp := range cfg.VPs {
		for _, t := range cfg.Targets {
			// Vantage points inside the origin AS probe from the
			// production prefix, so the monitored reachability is
			// exactly the traffic poisoning repairs.
			if n.Top.Router(vp).AS == cfg.Origin {
				s.Monitor.WatchFrom(vp, topo.ProductionAddr(cfg.Origin), t)
			} else {
				s.Monitor.Watch(vp, t)
			}
		}
	}

	s.Isolator = isolation.New(n.Top, n.Prober, s.Atlas, n.Clk)
	s.Remedy = remedy.New(n.Eng, n.Prober, n.Clk, cfg.Remedy)

	// A nil registry makes every Instrument call a no-op, so wiring is
	// unconditional.
	s.Monitor.Instrument(s.Obs)
	s.Isolator.Instrument(s.Obs)
	s.Remedy.Instrument(s.Obs)

	s.Monitor.OnOutage = s.handleOutage
	s.Monitor.OnRecovery = func(o *monitor.Outage) {
		s.log(Event{At: n.Clk.Now(), Kind: EventRecovered, VP: o.VP, Target: o.Target})
	}
	s.Monitor.OnRound = s.onRound
	s.Remedy.OnUnpoison = func(r *remedy.Repair) {
		s.log(Event{At: n.Clk.Now(), Kind: EventUnpoison, Target: r.Victim, Avoided: r.Avoided})
	}

	if cfg.Hijack.Enable {
		s.wireHijack()
	}
	return s
}

// wireHijack assembles the session's hijack plane: collector streams from
// the configured peers, a detector checking them against an ownership table
// snapshotted from the engine's pre-attack origins, and a responder
// announcing through the session's remedy controller. The
// detector's journal hook is installed before the responder chains onto
// OnAlarm, so every alarm is journaled before mitigation reacts to it.
func (s *Session) wireHijack() {
	n := s.Net
	peers := s.cfg.Hijack.CollectorPeers
	if len(peers) == 0 {
		peers = n.Top.Providers(s.cfg.Origin)
	}
	s.Collector = collectors.New(n.Eng, peers...)
	s.Collector.Instrument(s.Obs)

	s.Hijack = hijack.NewDetector(s.Collector, n.Top, n.Clk, hijack.TableFromEngine(n.Eng))
	s.Hijack.Instrument(s.Obs)
	s.Hijack.OnAlarm = func(a *hijack.Alarm) {
		s.log(Event{At: n.Clk.Now(), Kind: EventHijackDetected, Alarm: a},
			obs.F("class", a.Class), obs.F("prefix", a.Prefix),
			obs.F("rogue", a.Rogue), obs.F("owner", a.Owner),
			obs.F("latency", a.Latency))
	}
	s.Hijack.OnClear = func(a *hijack.Alarm) {
		s.log(Event{At: n.Clk.Now(), Kind: EventHijackCleared, Alarm: a},
			obs.F("class", a.Class), obs.F("prefix", a.Prefix),
			obs.F("rogue", a.Rogue),
			obs.F("active_for", a.ClearedAt-a.DetectedAt))
	}

	s.HijackResponder = hijack.NewResponder(s.Hijack, s.Remedy, n.Plane, s.cfg.Origin)
	s.HijackResponder.Instrument(s.Obs)
	s.HijackResponder.OnMitigated = func(m *hijack.Mitigation) {
		s.log(Event{At: n.Clk.Now(), Kind: EventHijackMitigated, Alarm: m.Alarm, Mitigation: m},
			obs.F("class", m.Alarm.Class), obs.F("prefix", m.Alarm.Prefix),
			obs.F("announced", len(m.Announced)), obs.F("poisoned", m.Poisoned),
			obs.F("fallback", m.Fallback), obs.F("latency", m.Latency),
			obs.F("recovered", m.Recovered), obs.F("vantages", m.Vantages))
	}
}

// NewSession wires a standalone session over a network — the single-tenant
// form of Rig.AddSession, useful for tests that want session semantics
// (tenant scoping, lifecycle, failsafe) without a Rig.
func NewSession(n *Network, cfg SessionConfig) *Session {
	if cfg.Tenant == "" {
		cfg.Tenant = fmt.Sprintf("AS%d", cfg.Origin)
	}
	return newSession(n, cfg)
}

// NewSystem wires the single-tenant form: one unlabelled session welded to
// one Network, with unscoped metrics and the historical "system" journal
// subsystem that the experiments' and CLIs' recorded outputs carry. Call
// Start to begin monitoring, then advance the network clock.
func NewSystem(n *Network, cfg Config) *Session {
	return newSession(n, SessionConfig{Config: cfg})
}

// Config returns the session's effective configuration.
func (s *Session) Config() SessionConfig { return s.cfg }

// Tenant returns the session's tenant label ("" for a NewSystem session).
func (s *Session) Tenant() string { return s.cfg.Tenant }

// Origin returns the AS the session speaks for.
func (s *Session) Origin() ASN { return s.cfg.Origin }

// Crashed reports whether the control plane is currently crashed.
func (s *Session) Crashed() bool { return s.crashed }

// InFailsafe reports whether the monitor-loss watchdog has tripped.
func (s *Session) InFailsafe() bool { return s.failsafe }

// Start announces the origin's production and sentinel prefixes and begins
// the atlas refresh and monitoring loops. Idempotent. Start after Stop is
// well-defined: monitoring resumes from fresh per-pair state, and the
// baseline is re-announced only when no repair is active — a poison
// installed before the Stop stays installed, its sentinel still ticking.
func (s *Session) Start() {
	if s.started {
		return
	}
	s.started = true
	if s.Remedy.Active() == nil {
		s.Remedy.AnnounceBaseline()
	}
	s.Atlas.Start()
	s.Monitor.Start()
	if s.Hijack != nil {
		s.Hijack.Start()
	}
}

// Stop halts monitoring, atlas refresh, and the failsafe watchdog — an
// administrative stop, not a crash, so no FAILSAFE entry results.
// Idempotent. An active poison stays in place until its sentinel clears it
// or Remedy.Unpoison is called.
func (s *Session) Stop() {
	if !s.started {
		return
	}
	s.started = false
	s.Monitor.Stop()
	s.Atlas.Stop()
	if s.Hijack != nil {
		s.Hijack.Stop()
	}
	s.Net.Clk.Cancel(s.watchdog)
}

// CrashControl takes the session's control plane down, as by a process
// crash: monitor rounds stop, isolation and repair decisions are
// suspended. With graceful restart (the default) the origin's announced
// routes stay installed — remote routers retain them as if stale-marked,
// and the data plane keeps forwarding the tenant's traffic. With
// NoGracefulRestart the crash withdraws every announcement (captured
// first, for the restore), so reachability is lost for the duration. The
// failsafe watchdog deliberately survives the crash: it is the mechanism
// that detects the resulting monitor loss and journals the FAILSAFE entry.
func (s *Session) CrashControl() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.Monitor.Stop()
	s.Atlas.Stop()
	if s.Hijack != nil {
		// Detection pauses with the rest of the control plane; alarms
		// raised before the crash stay raised and clear on the first scan
		// after the restore.
		s.Hijack.Stop()
	}
	s.Remedy.Suspend()
	if s.cfg.NoGracefulRestart {
		s.savedOrigins = s.Net.Eng.Origins(s.cfg.Origin)
		for _, o := range s.savedOrigins {
			s.Net.Eng.Withdraw(s.cfg.Origin, o.Prefix)
		}
	}
	s.log(Event{At: s.Net.Clk.Now(), Kind: EventControlCrash},
		obs.F("graceful", !s.cfg.NoGracefulRestart))
}

// RestoreControl brings a crashed control plane back up. Graceful restart
// finishes with the deferred re-announce: every origin prefix is refreshed
// from the retained state, the restarted speaker's end-of-RIB. A
// non-graceful restore replays the announcement set captured at the crash.
// Monitoring and repair resume only if the session was administratively
// started; the first completed round clears any FAILSAFE state.
func (s *Session) RestoreControl() {
	if !s.crashed {
		return
	}
	s.crashed = false
	reannounced := 0
	if s.cfg.NoGracefulRestart {
		for _, o := range s.savedOrigins {
			s.Net.Eng.Announce(s.cfg.Origin, o.Prefix, o.Config)
		}
		reannounced = len(s.savedOrigins)
		s.savedOrigins = nil
	} else {
		reannounced = s.Net.Eng.ReannounceOrigins(s.cfg.Origin)
	}
	s.log(Event{At: s.Net.Clk.Now(), Kind: EventControlRestore},
		obs.F("graceful", !s.cfg.NoGracefulRestart),
		obs.F("reannounced", reannounced))
	s.Remedy.Resume()
	if s.started {
		s.Atlas.Start()
		s.Monitor.Start()
		if s.Hijack != nil {
			s.Hijack.Start()
		}
	}
}

// Restart crashes and immediately restores the control plane — the planned
// upgrade case. With graceful restart on, the tenant's traffic forwards
// through the whole restart.
func (s *Session) Restart() {
	s.CrashControl()
	s.RestoreControl()
}

// repairsAllowed gates poison decisions on control-plane health: a crashed
// control plane or a tripped failsafe means the reachability picture is
// stale, and acting on stale data is the failure mode the watchdog exists
// to prevent.
func (s *Session) repairsAllowed() bool { return !s.crashed && !s.failsafe }

// onRound is the monitor's heartbeat: every completed round re-arms the
// failsafe watchdog and clears FAILSAFE if it was entered.
func (s *Session) onRound() {
	now := s.Net.Clk.Now()
	s.lastRound = now
	if s.failsafe {
		s.failsafe = false
		s.log(Event{At: now, Kind: EventFailsafeExit})
	}
	if !s.started {
		return
	}
	s.Net.Clk.Cancel(s.watchdog)
	last := s.lastRound
	s.watchdog = s.Net.Clk.At(now+FailsafeMaxDelay, func() {
		if s.failsafe || !s.started || s.lastRound != last {
			return
		}
		s.failsafe = true
		s.log(Event{At: s.Net.Clk.Now(), Kind: EventFailsafeEnter},
			obs.F("delay", s.Net.Clk.Now()-last),
			obs.F("bound", FailsafeMaxDelay))
	})
}

func (s *Session) log(e Event, extra ...obs.Field) {
	s.History = append(s.History, e)
	if j := s.Net.Journal; j.Enabled() {
		subsystem := "system"
		var fields []obs.Field
		if s.cfg.Tenant != "" {
			subsystem = "session"
			fields = append(fields, obs.F("tenant", s.cfg.Tenant))
		}
		switch e.Kind {
		case EventControlCrash, EventControlRestore, EventFailsafeEnter, EventFailsafeExit,
			EventHijackDetected, EventHijackMitigated, EventHijackCleared:
			// Lifecycle and hijack events carry no vp/target (hijack
			// records carry their own fields from the wiring site).
		default:
			fields = append(fields, obs.F("vp", e.VP), obs.F("target", e.Target))
		}
		if e.Kind == EventRepair {
			fields = append(fields, obs.F("action", e.Action), obs.F("avoided", e.Avoided))
		}
		if e.Kind == EventUnpoison {
			fields = append(fields, obs.F("avoided", e.Avoided))
		}
		fields = append(fields, extra...)
		j.Record(e.At, subsystem, e.Kind.String(), fields...)
	}
}

// handleOutage runs the paper's §4.2 pipeline: isolate now, then decide to
// poison once the measurements would have completed and the outage has aged
// past the threshold.
func (s *Session) handleOutage(o *monitor.Outage) {
	now := s.Net.Clk.Now()
	s.log(Event{At: now, Kind: EventOutage, VP: o.VP, Target: o.Target})

	rep := s.Isolator.Isolate(o.VP, o.Target)
	s.log(Event{At: now, Kind: EventIsolated, VP: o.VP, Target: o.Target, Report: rep})
	if rep.Healed || s.cfg.DisableAutoRepair {
		return
	}

	// The poison decision happens after isolation would have finished
	// and no earlier than the minimum outage age.
	decideAt := now + rep.EstimatedDuration
	minAge := s.Remedy.Config().MinOutageAge
	if t := o.Start + minAge; t > decideAt {
		decideAt = t
	}
	var decide func()
	waiting := false // an AlreadyActive verdict has been logged for this outage
	decide = func() {
		if !s.Monitor.Down(o.VP, o.Target) {
			return // healed while we waited
		}
		if !s.repairsAllowed() {
			// Control crashed or failsafe tripped: the repair is
			// deferred, not dropped — retry a round later, so the
			// pipeline resumes once the monitor is healthy again.
			s.Net.Clk.After(s.Monitor.Interval(), decide)
			return
		}
		action := s.Remedy.DecideAndRepair(rep, o.Start)
		if !(waiting && action == remedy.AlreadyActive) {
			s.log(Event{
				At: s.Net.Clk.Now(), Kind: EventRepair, VP: o.VP, Target: o.Target,
				Report: rep, Action: action, Avoided: rep.Blamed,
			})
		}
		if action == remedy.AlreadyActive {
			// Another pair's poison is up (one repair at a time). If this
			// outage outlives it, it still needs its own decision: ask
			// again a round later, from the stored report, logging the
			// wait once.
			waiting = true
			s.Net.Clk.After(s.Monitor.Interval(), decide)
		}
	}
	s.Net.Clk.At(decideAt, decide)
}

// EventsOfKind filters the history.
func (s *Session) EventsOfKind(k EventKind) []Event {
	var out []Event
	for _, e := range s.History {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}
