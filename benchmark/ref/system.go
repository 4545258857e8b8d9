package lifeguard

import (
	"fmt"
	"net/netip"
	"time"

	"lifeguard/internal/atlas"
	"lifeguard/internal/core/isolation"
	"lifeguard/internal/core/remedy"
	"lifeguard/internal/hijack"
	"lifeguard/internal/monitor"
)

// Config parameterizes a System deployment.
type Config struct {
	// Origin is the AS whose prefixes LIFEGUARD manages.
	Origin ASN
	// VPs are the vantage-point routers used for monitoring and
	// isolation (the PlanetLab role in the paper).
	VPs []RouterID
	// Targets are the destinations monitored for reachability.
	Targets []netip.Addr

	// Monitor, Atlas, Isolation and Remedy tune the subsystems; zero
	// values select paper-calibrated defaults.
	Monitor   monitor.Config
	Atlas     atlas.Config
	Isolation isolation.Config
	Remedy    remedy.Config

	// DisableAutoRepair turns the system into a pure observer: outages
	// are detected and isolated but never poisoned.
	DisableAutoRepair bool
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

// System is the single-tenant compatibility facade: one LIFEGUARD session
// welded to one Network, exactly the shape the pre-Rig code used. It is a
// thin wrapper — an unlabelled Session with the historical journal
// subsystem ("system") and unscoped metrics — so existing tests,
// experiments, and CLIs keep their byte-identical outputs. New code that
// wants more than one tenant, control-plane restarts, or failsafe wiring
// should use Rig/Session directly.
type System struct {
	*Session
}

// NewSystem wires a System over the network. Call Start to begin
// monitoring, then advance the network clock.
func NewSystem(n *Network, cfg Config) *System {
	return &System{Session: newSession(n, SessionConfig{Config: cfg})}
}
