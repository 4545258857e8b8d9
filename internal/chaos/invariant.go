package chaos

import (
	"encoding/binary"
	"fmt"
	"maps"
	"net/netip"
	"reflect"
	"slices"
	"time"

	"lifeguard/internal/bgp"
	"lifeguard/internal/bgp/refsolve"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
)

// Invariant names one checked property.
type Invariant string

// The checked invariants. The oracle runs at arm and at every barrier;
// baseline and reachability only when no fault is active (a healthy network
// must look healthy); unhealed runs at the final barrier.
const (
	// InvOracle: every AS forwards, for every prefix the engine has seen, on
	// the route refsolve.Solve gives over the engine's originations and down
	// sessions, longest match included (exact once the control plane has
	// drained).
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

// checkOracle holds every AS to refsolve.Solve over in, for every prefix
// the engine has seen, and compares what the AS forwards on: Engine.Lookup
// at the prefix's lowest address no more-specific covers must return the
// solution's route of the longest covering prefix the AS has one for (a
// prefix covered whole goes through Best). No packet is forwarded.
func (c *checker) checkOracle(in inputs) {
	top, eng := c.tgt.Top, c.tgt.Eng
	pfxs := eng.Prefixes()
	sols := make(map[netip.Prefix]map[topo.ASN]*refsolve.Route, len(pfxs))
	for _, p := range pfxs {
		sol, err := refsolve.Solve(top, in.down, in.origins[p])
		if err != nil {
			c.report(InvOracle, fmt.Sprintf("%v: %v", p, err))
		}
		sols[p] = sol
	}
	for _, p := range pfxs {
		chain := slices.DeleteFunc(slices.Clone(pfxs), func(q netip.Prefix) bool { return q.Bits() > p.Bits() || !q.Contains(p.Addr()) })
		slices.SortFunc(chain, func(a, b netip.Prefix) int { return b.Bits() - a.Bits() }) // p first
		addr, lookup := exclusive(p, pfxs)
		for _, asn := range top.ASNs() {
			var r *bgp.Route
			want := p
			if lookup {
				r, _ = eng.Lookup(asn, addr)
				for _, want = range chain {
					if sols[want] == nil || sols[want][asn] != nil {
						break
					}
				}
			} else {
				r, _ = eng.Speaker(asn).Best(p)
			}
			var got *refsolve.Route
			if r != nil {
				got = &refsolve.Route{Path: r.Path, From: r.From, Rel: r.Rel, LocalPref: r.LocalPref, Originated: r.Originated}
			}
			if sols[want] != nil && (!got.Equal(sols[want][asn]) || got != nil && r.Prefix != want) {
				c.report(InvOracle, fmt.Sprintf("AS%d %v: engine %+v, refsolve %v %+v", asn, p, r, want, sols[want][asn]))
			}
		}
	}
}

// exclusive returns the lowest address of the IPv4 prefix p that no prefix
// of pfxs longer than p covers, and false if those cover p whole.
func exclusive(p netip.Prefix, pfxs []netip.Prefix) (netip.Addr, bool) {
	span := func(q netip.Prefix) (lo, end uint64) {
		b := q.Addr().As4()
		lo = uint64(binary.BigEndian.Uint32(b[:]))
		return lo, lo + 1<<(32-q.Bits())
	}
	a, end := span(p)
	for moved := true; moved && a < end; {
		moved = false
		for _, q := range pfxs {
			if lo, hi := span(q); q.Bits() > p.Bits() && lo <= a && a < hi {
				a, moved = hi, true
			}
		}
	}
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}), a < end
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
