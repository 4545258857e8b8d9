// Package bgp implements the interdomain routing substrate: a discrete-event
// path-vector protocol engine with the pieces LIFEGUARD's remediation relies
// on — per-neighbor adj-RIB-in, a strict Gao–Rexford decision process
// (relationship local-pref, then shorter AS path, then lowest neighbor ASN),
// valley-free export filtering, AS-path loop prevention (which poisoning
// exploits), MRAI batching (which shapes convergence time and path
// exploration), prepending, and selective per-neighbor advertisement. The AS
// path is the one attribute a route carries: LIFEGUARD's every lever is the
// path, so no other attribute is modelled (EXPERIMENTS.md, Deviations).
//
// One speaker models one AS. Router-level detail lives in the data plane;
// route selection is AS-granular, matching how the paper reasons about
// poisoning ("BGP uses AS-level topology abstractions", §3).
package bgp

import (
	"net/netip"
	"time"

	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
)

// LocalPref values derived from the business relationship of the neighbor a
// route was learned from (Gao–Rexford economics: prefer routes you are paid
// to carry).
const (
	prefOriginated = 1000
	prefCustomer   = 300
	prefPeer       = 200
	prefProvider   = 100
)

// Route is the public form of one adj-RIB-in or loc-RIB entry. The engine
// stores neither as a Route (see rib.go): one is built for the caller that
// asks and is immutable from then on — a pointer held across a routing
// change keeps describing the route as it was. A loc-RIB Route is
// remembered per slot, with the one its last rebuild displaced: reads
// between changes return one pointer, and a slot that flips back to that
// displaced route (an unpoison, a heal) returns its pointer again.
type Route struct {
	Prefix netip.Prefix
	// Path is the AS path as received: Path[0] is the neighbor that sent
	// the route (and therefore the forwarding next hop), the origin is
	// last. Poisons and prepends appear verbatim.
	Path topo.Path
	// From is the neighbor AS the route was learned from. For originated
	// routes From is the owning AS itself.
	From topo.ASN
	// Rel is the relationship of From as seen by the receiving AS at
	// import time (RelNone for originated routes).
	Rel       topo.Rel
	LocalPref int
	// Originated marks locally-originated routes.
	Originated bool
}

// NextHop returns the neighbor AS traffic is forwarded to, and false for
// originated routes (local delivery).
func (r *Route) NextHop() (topo.ASN, bool) {
	if r.Originated || len(r.Path) == 0 {
		return 0, false
	}
	return r.Path[0], true
}

// OriginConfig controls how an AS announces one of its own prefixes. The
// zero value announces the plain single-ASN path to every neighbor.
type OriginConfig struct {
	// Pattern is the AS path to announce, origin conventions apply: the
	// announcing AS must appear first (it is the next hop) and last (it
	// is the registered origin); poisons sit in between. nil means the
	// plain [self] path. [self self self] is the prepended baseline of
	// §3.1.1; [self A self] poisons A.
	Pattern topo.Path
	// PerNeighbor overrides Pattern for specific neighbors — the
	// selective-poisoning primitive of §3.1.2. An entry with a nil path
	// is invalid; use Withhold for selective advertising.
	PerNeighbor map[topo.ASN]topo.Path
	// Withhold suppresses the announcement to the listed neighbors
	// entirely (selective advertising, §2.3).
	Withhold map[topo.ASN]bool
}

// sanitized returns a deep copy of c. Announce applies it at the API
// boundary, so the engine's internals (export, adj-RIB-out dedup, deliveries)
// can alias the config's paths freely without a caller mutating them
// underneath — and the hot flush path needs no per-message defensive clones.
func (c OriginConfig) sanitized() OriginConfig {
	c.Pattern = c.Pattern.Clone()
	if c.PerNeighbor != nil {
		m := make(map[topo.ASN]topo.Path, len(c.PerNeighbor))
		for n, p := range c.PerNeighbor {
			m[n] = p.Clone()
		}
		c.PerNeighbor = m
	}
	if c.Withhold != nil {
		m := make(map[topo.ASN]bool, len(c.Withhold))
		for n, v := range c.Withhold {
			m[n] = v
		}
		c.Withhold = m
	}
	return c
}

// BestChange is emitted through Engine.OnBestChange whenever any AS's
// selected route for a prefix changes. A nil Path means the AS lost its
// route. Route collectors and convergence instrumentation consume these.
type BestChange struct {
	At     time.Duration
	AS     topo.ASN
	Prefix netip.Prefix
	Path   topo.Path // nil when the route was lost
}

// propDelay is the mean one-way message propagation+processing delay
// between adjacent speakers, jittered ±Config.PropJitter.
const propDelay = 50 * time.Millisecond

// MaxConvergeSteps is the scheduler-step budget of a full control-plane
// drain (Engine.Converge): network assembly, Network.Converge and every
// chaos barrier spend at most this many steps before reporting that the
// control plane is still busy.
const MaxConvergeSteps = 200_000_000

// Config tunes the engine's timing model. A jitter fraction below zero
// means "no jitter"; New rejects one above 1.
type Config struct {
	// MRAI is the mean minimum route advertisement interval per neighbor
	// session. Default 30s, jittered ±MRAIJitter.
	MRAI       time.Duration
	MRAIJitter float64 // fraction of MRAI, default 0.25
	PropJitter float64 // fraction of the 50ms propagation delay, default 0.5
	// Seed feeds the engine's private RNG; runs with equal seeds replay
	// identically.
	Seed int64
	// Dampening enables RFC 2439 route-flap dampening at every speaker,
	// with the Cisco default parameters (dampening.go).
	Dampening bool
	// Obs receives the engine's metrics (update counts, decision runs,
	// MRAI deferrals, dampening activity, loc-RIB and LPM sizes). nil
	// disables instrumentation at the cost of one branch per site;
	// enabled or not, protocol behaviour is identical.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MRAI == 0 {
		c.MRAI = 30 * time.Second
	}
	if c.MRAIJitter == 0 {
		c.MRAIJitter = 0.25
	}
	if c.PropJitter == 0 {
		c.PropJitter = 0.5
	}
	return c
}

// update is the wire message between speakers. A nil path is a withdrawal.
// The sender resolves the path's interned handle at flush time and ships both
// forms: the slice feeds import policy (loop checks walk the path), the
// handle lands in the receiver's compact adj-RIB-in without re-interning.
// The prefix travels as its table id.
type update struct {
	path topo.Path
	id   prefixID
	pid  pathID
}
