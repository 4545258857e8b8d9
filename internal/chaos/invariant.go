package chaos

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"time"

	"lifeguard/internal/dataplane"
	"lifeguard/internal/hijack"
	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
)

// Invariant names one checked property.
type Invariant string

// The checked invariants. Loop and RIB checks run at every barrier;
// baseline, reachability, and origin authenticity only when no fault is
// active (a healthy network must look healthy); unhealed runs at the final
// barrier.
const (
	// InvForwardLoop: no AS-level forwarding loop in any LPM walk.
	InvForwardLoop Invariant = "forward-loop"
	// InvRIBConsistency: every selected route's next hop is an adjacent
	// AS with a live session, and no path routes through its own AS.
	InvRIBConsistency Invariant = "rib-consistency"
	// InvConvergence: the control plane drains within the barrier budget.
	InvConvergence Invariant = "convergence"
	// InvBaseline: with all faults healed, every loc-RIB returns to the
	// pre-chaos baseline (fingerprint match).
	InvBaseline Invariant = "baseline-divergence"
	// InvReachability: with all faults healed, every configured probe
	// pair delivers.
	InvReachability Invariant = "sentinel-unreachable"
	// InvUnhealed: no fault is still active when the run ends.
	InvUnhealed Invariant = "unhealed-fault"
	// InvOriginAuth: with all faults healed, every best route's origin is
	// the AS that owned the covering prefix before chaos began — no
	// lingering hijacked state (a rogue origin, or a forged path claiming
	// the true origin) survives in any loc-RIB.
	InvOriginAuth Invariant = "origin-hijacked"
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
	baseline   uint64
	violations []Violation

	// owners is the pre-chaos prefix-ownership table for the origin-
	// authenticity check, snapshotted at arm time. A prefix originated by
	// more than one AS then (anycast-style) has no single owner and is out
	// of the check; a covering owner vouches for its more-specifics, so an
	// owner's own de-aggregated halves — the hijack responder's mitigation
	// — count as authentic.
	owners *hijack.Table
}

// checkOriginAuth asserts origin authenticity over every loc-RIB: the AS a
// best route says originated the prefix must be the arm-time owner. Run
// only at zero-active-fault barriers — while a hijack fault is live the
// whole point is that this property is broken.
func (c *checker) checkOriginAuth() {
	if c.owners == nil {
		return
	}
	for _, asn := range c.tgt.Top.ASNs() {
		sp := c.tgt.Eng.Speaker(asn)
		for _, p := range sp.KnownPrefixes() {
			r, ok := sp.Best(p)
			if !ok {
				continue
			}
			owner, _, ok := c.owners.Owner(p)
			if !ok {
				continue
			}
			claimed := asn // originated routes claim the holder itself
			if !r.Originated {
				var okO bool
				if claimed, okO = r.Path.Origin(); !okO {
					continue // empty non-originated path: checkRIB's problem
				}
			}
			if claimed != owner {
				c.report(InvOriginAuth,
					fmt.Sprintf("AS%d best route for %v claims origin AS%d, owner is AS%d (path %v)",
						asn, p, claimed, owner, r.Path))
			}
		}
	}
}

// fingerprint hashes every AS's loc-RIB — (asn, prefix, path) in the
// deterministic (ASNs, sorted prefixes) order — into one FNV-1a word.
// Identical routing state ⇒ identical fingerprint, and the repo's map-order
// discipline makes the converse reliable in practice.
func (c *checker) fingerprint() uint64 {
	h := fnv.New64a()
	for _, asn := range c.tgt.Top.ASNs() {
		sp := c.tgt.Eng.Speaker(asn)
		for _, p := range sp.KnownPrefixes() {
			r, ok := sp.Best(p)
			if !ok {
				continue
			}
			fmt.Fprintf(h, "%d|%v|%v\n", asn, p, r.Path)
		}
	}
	return h.Sum64()
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

// checkRIB verifies structural loc-RIB sanity for every AS: selected routes
// must point at adjacent neighbors over live sessions, and no route's path
// may contain the AS holding it (BGP loop prevention).
func (c *checker) checkRIB() {
	top := c.tgt.Top
	for _, asn := range top.ASNs() {
		sp := c.tgt.Eng.Speaker(asn)
		for _, p := range sp.KnownPrefixes() {
			r, ok := sp.Best(p)
			if !ok {
				continue
			}
			if r.Originated {
				continue
			}
			nh, ok := r.NextHop()
			if !ok {
				c.report(InvRIBConsistency,
					fmt.Sprintf("AS%d route for %v has empty path but is not originated", asn, p))
				continue
			}
			if !top.Adjacent(asn, nh) {
				c.report(InvRIBConsistency,
					fmt.Sprintf("AS%d route for %v has non-adjacent next hop AS%d", asn, p, nh))
			}
			if c.tgt.Eng.AdjacencyDown(asn, nh) {
				c.report(InvRIBConsistency,
					fmt.Sprintf("AS%d route for %v uses down session to AS%d", asn, p, nh))
			}
			if r.Path.Contains(asn) {
				c.report(InvRIBConsistency,
					fmt.Sprintf("AS%d route for %v loops through itself: %v", asn, p, r.Path))
			}
		}
	}
}

// checkBaseline compares the current loc-RIB fingerprint to the pre-chaos
// one. Only meaningful with zero active faults.
func (c *checker) checkBaseline() {
	if fp := c.fingerprint(); fp != c.baseline {
		c.report(InvBaseline,
			fmt.Sprintf("loc-RIB fingerprint %016x differs from baseline %016x", fp, c.baseline))
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
