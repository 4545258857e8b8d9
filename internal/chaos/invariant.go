package chaos

import (
	"fmt"
	"maps"
	"net/netip"
	"reflect"
	"time"

	"lifeguard/internal/bgp/refsolve"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
)

// Invariant names one checked property.
type Invariant string

// The checked invariants. Loop and oracle checks run at every barrier, the
// oracle also at arm; baseline and reachability only when no fault is
// active (a healthy network must look healthy); unhealed runs at the final
// barrier.
const (
	// InvForwardLoop: no AS-level forwarding loop in any LPM walk.
	InvForwardLoop Invariant = "forward-loop"
	// InvOracle: every AS holds, for every prefix the engine has seen, the
	// route refsolve.Solve gives over the engine's originations and down
	// sessions (exact once the control plane has drained).
	InvOracle Invariant = "oracle-mismatch"
	// InvConvergence: the control plane drains within the barrier budget.
	InvConvergence Invariant = "convergence"
	// InvBaseline: with all faults healed, the originations and down
	// sessions equal those at arm. With InvOracle holding at arm and at
	// the barrier, every loc-RIB then equals its pre-chaos state.
	InvBaseline Invariant = "baseline-divergence"
	// InvReachability: with all faults healed, every configured probe
	// pair delivers.
	InvReachability Invariant = "sentinel-unreachable"
	// InvUnhealed: no fault is still active when the run ends.
	InvUnhealed Invariant = "unhealed-fault"
)

// Violation is one invariant breach, stamped with the barrier's virtual
// time. It is both a typed error and a journaled event.
type Violation struct {
	At        time.Duration
	Invariant Invariant
	Detail    string
}

// Error implements error.
func (v Violation) Error() string {
	return fmt.Sprintf("chaos: %v: %s at %v", v.Invariant, v.Detail, v.At)
}

// ReachProbe is one data-plane reachability assertion checked at
// all-healed barriers: a packet from From must reach To. Callers point it
// at sentinel or production addresses (the paper's reachability signal).
type ReachProbe struct {
	From topo.RouterID
	To   netip.Addr
}

// checker runs the invariant suite against a target. It is owned by the
// Runner; all methods run on the simulation goroutine.
type checker struct {
	tgt        *Target
	reach      []ReachProbe
	armed      inputs
	violations []Violation
}

// inputs is everything refsolve.Solve reads from the engine: who originates
// each prefix and how, and which sessions are down.
type inputs struct {
	origins map[netip.Prefix]map[topo.ASN]refsolve.Origin
	down    map[topo.ASPair]bool
}

// gather reads the routing inputs from the target's engine.
func (c *checker) gather() inputs {
	top, eng := c.tgt.Top, c.tgt.Eng
	in := inputs{origins: map[netip.Prefix]map[topo.ASN]refsolve.Origin{}, down: map[topo.ASPair]bool{}}
	for _, asn := range top.ASNs() {
		for _, o := range eng.Origins(asn) {
			if in.origins[o.Prefix] == nil {
				in.origins[o.Prefix] = map[topo.ASN]refsolve.Origin{}
			}
			in.origins[o.Prefix][asn] = refsolve.Origin(o.Config)
		}
		for _, nb := range top.Neighbors(asn) {
			if eng.AdjacencyDown(asn, nb) {
				in.down[topo.MakeASPair(asn, nb)] = true
			}
		}
	}
	return in
}

// report records a violation and journals it.
func (c *checker) report(inv Invariant, detail string) {
	v := Violation{At: c.tgt.Clk.Now(), Invariant: inv, Detail: detail}
	c.violations = append(c.violations, v)
	c.tgt.journal("violation", obs.F("invariant", inv), obs.F("detail", detail))
}

// checkLoops walks the AS-level forwarding graph from every AS toward every
// other AS's hub address and reports any cycle. The walk follows
// Engine.Lookup next hops — the same LPM state the data plane uses — so a
// cycle here is a packet that would ping-pong until TTL death.
func (c *checker) checkLoops() {
	top := c.tgt.Top
	asns := top.ASNs()
	for _, dst := range asns {
		addr := top.Router(top.AS(dst).Routers[0]).Addr
		for _, src := range asns {
			if src == dst {
				continue
			}
			seen := map[topo.ASN]bool{src: true}
			cur := src
			for {
				r, ok := c.tgt.Eng.Lookup(cur, addr)
				if !ok {
					break // no route: a drop, not a loop
				}
				nh, ok := r.NextHop()
				if !ok {
					break // originated: delivered
				}
				if seen[nh] {
					c.report(InvForwardLoop,
						fmt.Sprintf("AS%d toward AS%d (%v) revisits AS%d", src, dst, addr, nh))
					break
				}
				seen[nh] = true
				cur = nh
			}
		}
	}
}

// checkOracle holds every AS's route for every prefix the engine has seen
// to refsolve.Solve over in, so a stale route to a prefix nobody originates
// fails too. It reads loc-RIBs only: forwarding a packet would move the data
// plane's counters and walk cache.
func (c *checker) checkOracle(in inputs) {
	top, eng := c.tgt.Top, c.tgt.Eng
	for _, p := range eng.Prefixes() {
		sol, err := refsolve.Solve(top, in.down, in.origins[p])
		if err != nil {
			c.report(InvOracle, fmt.Sprintf("%v: %v", p, err))
			continue
		}
		for _, asn := range top.ASNs() {
			var got *refsolve.Route
			if r, ok := eng.Speaker(asn).Best(p); ok {
				got = &refsolve.Route{Path: r.Path, From: r.From, Rel: r.Rel, LocalPref: r.LocalPref, Originated: r.Originated}
			}
			if !got.Equal(sol[asn]) {
				c.report(InvOracle, fmt.Sprintf("AS%d %v: engine %+v, refsolve %+v", asn, p, got, sol[asn]))
			}
		}
	}
}

// checkBaseline compares the routing inputs with those at arm: one
// violation per prefix whose originations differ, one if the down sessions
// do. Only meaningful with zero active faults.
func (c *checker) checkBaseline(in inputs) {
	for _, p := range c.tgt.Eng.Prefixes() {
		if now, then := in.origins[p], c.armed.origins[p]; !reflect.DeepEqual(now, then) {
			c.report(InvBaseline, fmt.Sprintf("%v originated as %v, at arm as %v", p, now, then))
		}
	}
	if !maps.Equal(in.down, c.armed.down) {
		c.report(InvBaseline, fmt.Sprintf("sessions down %v, at arm %v", in.down, c.armed.down))
	}
}

// checkReach forwards one packet per configured probe pair. Only meaningful
// with zero active faults.
func (c *checker) checkReach() {
	for _, pr := range c.reach {
		src := c.tgt.Top.Router(pr.From).Addr
		res := c.tgt.Plane.Forward(pr.From, dataplane.Packet{Src: src, Dst: pr.To})
		if !res.Delivered() {
			c.report(InvReachability,
				fmt.Sprintf("probe from router %d to %v dropped: %v at AS%d",
					pr.From, pr.To, res.Reason, res.LastAS))
		}
	}
}
