package lifeguard

import (
	"fmt"

	"lifeguard/internal/chaos"
	"lifeguard/internal/topo"
)

// Rig is the shared layer of the multi-tenant facade: one simulated
// internetwork (topology, clock, BGP engine, data plane, prober) hosting
// any number of per-tenant Sessions. All sessions run on the one virtual
// clock, so their interleaving is deterministic: the same seed and the
// same AddSession order replay the same merged timeline, and each
// tenant's own event history and metrics partition are byte-identical to
// what a dedicated single-session run would have produced.
//
// The Rig also owns the chaos hooks: RunChaos hands the chaos engine the
// control-plane interface that lets the crashcontrol fault crash and
// restore individual tenants' sessions while the internetwork keeps
// running.
type Rig struct {
	Net *Network

	sessions []*Session
	byOrigin map[ASN]*Session
}

// NewRig wraps an assembled network as a multi-tenant rig.
func NewRig(n *Network) *Rig {
	return &Rig{Net: n, byOrigin: make(map[ASN]*Session)}
}

// AddSession wires a new tenant over the rig without starting it; call
// Start on the returned session. One session per origin AS: a duplicate
// origin is an error. Tenant defaults to "AS<origin>". Sessions can be
// added while the rig is live — a hitless reload: existing tenants'
// monitors, outage state, and active repairs are untouched.
func (r *Rig) AddSession(cfg SessionConfig) (*Session, error) {
	if cfg.Tenant == "" {
		cfg.Tenant = fmt.Sprintf("AS%d", cfg.Origin)
	}
	if r.Net.Top.AS(cfg.Origin) == nil {
		return nil, fmt.Errorf("lifeguard: AddSession: unknown origin AS %d", cfg.Origin)
	}
	if _, dup := r.byOrigin[cfg.Origin]; dup {
		return nil, fmt.Errorf("lifeguard: AddSession: origin AS %d already has a session", cfg.Origin)
	}
	for _, s := range r.sessions {
		if s.cfg.Tenant == cfg.Tenant {
			return nil, fmt.Errorf("lifeguard: AddSession: tenant %q already exists", cfg.Tenant)
		}
	}
	s := newSession(r.Net, cfg)
	r.sessions = append(r.sessions, s)
	r.byOrigin[cfg.Origin] = s
	return s, nil
}

// RemoveSession stops origin's session, drops its pending repair decisions,
// reverts any active repair, and withdraws the tenant's production and
// sentinel prefixes, leaving every other session untouched — the hitless
// removal half of config reload. It reports whether a session was removed.
func (r *Rig) RemoveSession(origin ASN) bool {
	s, ok := r.byOrigin[origin]
	if !ok {
		return false
	}
	s.Stop()
	s.removed = true
	s.Remedy.Unpoison()
	production, sentinel := s.Remedy.Prefixes()
	r.Net.Eng.Withdraw(origin, production)
	r.Net.Eng.Withdraw(origin, sentinel)
	delete(r.byOrigin, origin)
	for i, cand := range r.sessions {
		if cand == s {
			r.sessions = append(r.sessions[:i], r.sessions[i+1:]...)
			break
		}
	}
	return true
}

// Session returns origin's session, or nil.
func (r *Rig) Session(origin ASN) *Session { return r.byOrigin[origin] }

// Sessions returns the rig's sessions in AddSession order.
func (r *Rig) Sessions() []*Session {
	out := make([]*Session, len(r.sessions))
	copy(out, r.sessions)
	return out
}

// Start starts every session, in AddSession order.
func (r *Rig) Start() {
	for _, s := range r.sessions {
		s.Start()
	}
}

// Stop stops every session, in AddSession order.
func (r *Rig) Stop() {
	for _, s := range r.sessions {
		s.Stop()
	}
}

// rigControl is the chaos.ControlPlane over a rig's sessions: crashcontrol
// faults validate against, crash and restore the hosted tenants. It is
// not the rig's own API; a caller crashes a tenant through its Session.
type rigControl struct{ r *Rig }

func (c rigControl) HasControl(origin topo.ASN) bool { return c.r.byOrigin[origin] != nil }

func (c rigControl) CrashControl(origin topo.ASN) {
	if s := c.r.byOrigin[origin]; s != nil {
		s.CrashControl()
	}
}

func (c rigControl) RestoreControl(origin topo.ASN) {
	if s := c.r.byOrigin[origin]; s != nil {
		s.RestoreControl()
	}
}

// RunChaos executes a fault timeline against the rig's network, with the
// sessions' control planes in scope for crashcontrol faults. It is the one
// chaos entry point: deterministic, so the same network seed, sessions and
// script yield the same report bytes. See internal/chaos for the script
// language and invariants.
func (r *Rig) RunChaos(s *ChaosScript, opts ChaosOptions) (*ChaosReport, error) {
	n := r.Net
	runner, err := chaos.NewRunner(&chaos.Target{
		Top: n.Top, Clk: n.Clk, Eng: n.Eng, Plane: n.Plane,
		Journal: n.Journal, Control: rigControl{r},
	}, s, opts)
	if err != nil {
		return nil, err
	}
	return runner.Run()
}
