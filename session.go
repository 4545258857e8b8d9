package lifeguard

import (
	"fmt"
	"net/netip"
	"time"

	"lifeguard/internal/atlas"
	"lifeguard/internal/bgp"
	"lifeguard/internal/core/isolation"
	"lifeguard/internal/core/remedy"
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
// restart is on. Once Rig.RemoveSession has removed it, every lifecycle
// call is a no-op.
type Session struct {
	Net      *Network
	Atlas    *atlas.Atlas
	Monitor  *monitor.Monitor
	Isolator *isolation.Isolator
	Remedy   *remedy.Controller

	// Traffic is the session's flow-population generator; nil until
	// AttachTraffic wires one.
	Traffic *TrafficGenerator

	cfg SessionConfig

	// History records everything the session did.
	History []Event
	outages []*OutageRecord // one per monitor declaration, indexed by Seq

	// Obs is the session's metrics partition: a child view of the
	// network's registry scoped by tenant, the network registry itself for
	// an unlabelled (compat) session, or nil when uninstrumented.
	Obs *obs.Registry

	started bool
	crashed bool
	// removed is set by Rig.RemoveSession: pending repair decisions drop
	// and lifecycle calls do nothing.
	removed bool

	// Graceful-restart state: announcements captured at a non-graceful
	// crash, replayed on restore.
	savedOrigins []bgp.OriginAnnouncement

	// Failsafe watchdog state. watchdogFire is fireWatchdog bound once, so
	// a re-arm costs no closure.
	failsafe     bool
	lastRound    time.Duration
	watchdog     simclock.EventID
	watchdogFire func(uint64)
	decideFire   func(uint64) // fireDecision, bound the same way
	skipped      [numReasons]*obs.Counter
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
	// Report is set for EventIsolated and EventRepair.
	Report *isolation.Report
	// Action is set for EventRepair (it may be a refusal such as
	// NoAlternate).
	Action remedy.Action
	// Avoided is set for EventRepair/EventUnpoison when a poison was
	// involved.
	Avoided ASN
}

// OutageRecord is one detected outage's pass through the §4.2 pipeline,
// minted at detection and kept by the session (Session.Outages).
type OutageRecord struct {
	*monitor.Outage // VP, Target, Start, and End once recovered
	Report          *isolation.Report
	// Declared, first decision armed for, last verdict logged; 0 if not yet.
	Detected, Armed, Decided time.Duration
	Rearms                   int            // decisions asked again a round later
	Action                   remedy.Action  // the last verdict logged
	Repair                   *remedy.Repair // its poison; Ended is the unpoison
	PoisonUp                 bool           // the target's poison was up at End
	Reason                   Reason
	counted                  uint16 // reasons counted in lifeguard_repair_skipped_total
}

// Reason says where an outage left the repair pipeline, or where it waits.
// Reasons from ReasonAutoRepairOff on count once per outage in
// lifeguard_repair_skipped_total{reason}. remedy.TooYoung has none: the
// decision is armed no earlier than Start + MinOutageAge.
type Reason uint8

const (
	ReasonPending Reason = iota
	ReasonPoisoned
	ReasonAutoRepairOff
	ReasonHealedInIsolation
	ReasonRemoved
	ReasonHealedWhileWaiting
	ReasonDeferred
	ReasonNoFailure
	ReasonNotPoisonable
	ReasonNoAlternate
	ReasonAlreadyActive
	numReasons
)

var reasonNames = [numReasons]string{"pending", "poisoned", "auto-repair-off",
	"healed-during-isolation", "removed", "healed-while-waiting", "deferred",
	"no-failure", "not-poisonable", "no-alternate", "already-active"}

// verdictReason is the reason for each verdict DecideAndRepair returns.
var verdictReason = [...]Reason{remedy.NoFailure: ReasonNoFailure,
	remedy.NotPoisonable: ReasonNotPoisonable, remedy.NoAlternate: ReasonNoAlternate,
	remedy.Poisoned: ReasonPoisoned, remedy.AlreadyActive: ReasonAlreadyActive}

// String names the reason as its metric label does.
func (r Reason) String() string { return reasonNames[r] }

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

	s.Obs.Describe("lifeguard_repair_skipped_total",
		"outages the session did not poison, once per outage per reason")
	for why := ReasonAutoRepairOff; why < numReasons; why++ {
		s.skipped[why] = s.Obs.Counter("lifeguard_repair_skipped_total", obs.L("reason", why.String()))
	}

	s.Monitor.OnOutage = s.handleOutage
	s.Monitor.OnRecovery = func(o *monitor.Outage) {
		a := s.Remedy.Active()
		s.outages[o.Seq].PoisonUp = a != nil && a.Victim == o.Target
		s.log(Event{At: n.Clk.Now(), Kind: EventRecovered, VP: o.VP, Target: o.Target})
	}
	s.Monitor.OnRound = s.onRound
	s.watchdogFire = s.fireWatchdog
	s.decideFire = s.fireDecision
	s.Remedy.OnUnpoison = func(r *remedy.Repair) {
		s.log(Event{At: n.Clk.Now(), Kind: EventUnpoison, Target: r.Victim, Avoided: r.Avoided})
	}

	return s
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
// well-defined: monitoring resumes from the per-pair state it stopped with,
// so a repair the Stop deferred goes ahead, and the baseline is
// re-announced only when no repair is active — a poison installed before
// the Stop stays installed, its sentinel still ticking.
func (s *Session) Start() {
	if s.started || s.removed {
		return
	}
	s.started = true
	if s.Remedy.Active() == nil {
		s.Remedy.AnnounceBaseline()
	}
	s.Atlas.Start()
	s.Monitor.Start()
}

// Stop halts monitoring, atlas refresh, and the failsafe watchdog — an
// administrative stop, not a crash, so no FAILSAFE entry results.
// Idempotent. Repair decisions wait for the next Start. An active poison
// stays in place until its sentinel clears it or Remedy.Unpoison is called.
func (s *Session) Stop() {
	if !s.started {
		return
	}
	s.started = false
	s.Monitor.Stop()
	s.Atlas.Stop()
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
	if s.crashed || s.removed {
		return
	}
	s.crashed = true
	s.Monitor.Stop()
	s.Atlas.Stop()
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
	if !s.crashed || s.removed {
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
	}
}

// Restart crashes and immediately restores the control plane — the planned
// upgrade case. With graceful restart on, the tenant's traffic forwards
// through the whole restart.
func (s *Session) Restart() {
	s.CrashControl()
	s.RestoreControl()
}

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
	s.watchdog = s.Net.Clk.AtCall(now+FailsafeMaxDelay, s.watchdogFire, uint64(now))
}

// fireWatchdog enters FAILSAFE unless a round has completed since the one
// at last that armed it.
func (s *Session) fireWatchdog(last uint64) {
	if s.failsafe || !s.started || s.lastRound != time.Duration(last) {
		return
	}
	s.failsafe = true
	s.log(Event{At: s.Net.Clk.Now(), Kind: EventFailsafeEnter},
		obs.F("delay", s.Net.Clk.Now()-time.Duration(last)),
		obs.F("bound", FailsafeMaxDelay))
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
		// The record is rendered from the fields the event has. Lifecycle
		// events have no target; they bring their own fields.
		if e.Target.IsValid() {
			fields = append(fields, obs.F("vp", e.VP), obs.F("target", e.Target))
		}
		if e.Kind == EventRepair {
			fields = append(fields, obs.F("action", e.Action))
		}
		if e.Kind == EventRepair || e.Kind == EventUnpoison {
			fields = append(fields, obs.F("avoided", e.Avoided))
		}
		fields = append(fields, extra...)
		j.Record(e.At, subsystem, e.Kind.String(), fields...)
	}
}

// handleOutage runs the paper's §4.2 pipeline: mint the outage's record,
// isolate now, then decide.
func (s *Session) handleOutage(o *monitor.Outage) {
	now := s.Net.Clk.Now()
	s.log(Event{At: now, Kind: EventOutage, VP: o.VP, Target: o.Target})
	rep := s.Isolator.Isolate(o.VP, o.Target)
	s.outages = append(s.outages, &OutageRecord{Outage: o, Report: rep, Detected: now})
	s.log(Event{At: now, Kind: EventIsolated, VP: o.VP, Target: o.Target, Report: rep})
	s.fireDecision(uint64(o.Seq))
}

// fireDecision runs outage i's decision and acts on its reason: it arms
// the decision, asks again a monitor round later, or counts why the outage
// goes unpoisoned, once per outage per reason.
func (s *Session) fireDecision(i uint64) {
	r := s.outages[i]
	why := r.decide(s)
	switch why {
	case ReasonPending:
		// After isolation would have finished, and no earlier than the
		// minimum outage age.
		r.Armed = max(r.Detected+r.Report.EstimatedDuration, r.Start+s.Remedy.Config().MinOutageAge)
		s.Net.Clk.AtCall(r.Armed, s.decideFire, i)
		return
	case ReasonDeferred, ReasonAlreadyActive:
		r.Rearms++
		s.Net.Clk.AfterCall(s.Monitor.Interval(), s.decideFire, i)
	}
	r.Reason = why
	if bit := uint16(1) << why; r.counted&bit == 0 {
		r.counted |= bit
		s.skipped[why].Inc()
	}
}

// decide is the poison decision; every branch says why the outage was, or
// was not, poisoned, or that it is yet to be decided.
func (r *OutageRecord) decide(s *Session) Reason {
	switch {
	case r.Report.Healed:
		return ReasonHealedInIsolation
	case s.cfg.DisableAutoRepair:
		return ReasonAutoRepairOff
	case r.Armed == 0:
		return ReasonPending
	case s.removed:
		return ReasonRemoved
	case r.End != 0:
		return ReasonHealedWhileWaiting
	case !s.started || s.crashed || s.failsafe:
		// A stopped session acts on nothing, and after a control crash or
		// in failsafe the reachability picture is stale. Deferred, not
		// dropped: the pipeline resumes once the session runs again.
		return ReasonDeferred
	}
	now := s.Net.Clk.Now()
	action := s.Remedy.DecideAndRepair(r.Report, r.Start)
	// Behind another pair's poison (one repair at a time) the outage is
	// asked again every round from its stored report; the wait is logged
	// once.
	if action != remedy.AlreadyActive || r.Decided == 0 {
		r.Decided, r.Action = now, action
		s.log(Event{
			At: now, Kind: EventRepair, VP: r.VP, Target: r.Target,
			Report: r.Report, Action: action, Avoided: r.Report.Blamed,
		})
	}
	if action == remedy.Poisoned {
		r.Repair = s.Remedy.Active()
	}
	return verdictReason[action]
}

// Outages returns the session's outage records in detection order. The
// slice is the session's own.
func (s *Session) Outages() []*OutageRecord { return s.outages }
