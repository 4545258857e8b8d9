// Package splice answers "does a policy-compliant path exist?" questions
// without running the protocol: valley-free reachability over the AS graph
// with an avoided-AS set (the large-scale poisoning simulation of §5.1, and
// remedy's poison/don't-poison predicate), and the §2.2 traceroute-splicing
// analysis with its three-tuple export-policy check.
package splice

import (
	"lifeguard/internal/probe"
	"lifeguard/internal/topo"
)

// Reach computes the set of ASes that have at least one valley-free
// (Gao–Rexford exportable) route to origin, never traversing an AS in
// avoid. The origin itself is included unless avoided.
func Reach(top *topo.Topology, origin topo.ASN, avoid map[topo.ASN]bool) map[topo.ASN]bool {
	q := reach(top, origin, avoid, 0, false)
	reached := make(map[topo.ASN]bool, len(q))
	for _, a := range q {
		reached[a] = true
	}
	return reached
}

// CanReach reports whether src has a valley-free route to origin avoiding
// the given ASes: whether Reach(top, origin, avoid) holds src, without
// building the set and stopping as soon as src is reached.
func CanReach(top *topo.Topology, src, origin topo.ASN, avoid map[topo.ASN]bool) bool {
	q := reach(top, origin, avoid, src, true)
	return len(q) > 0 && q[len(q)-1] == src
}

// reach returns, in the order it reaches them, the ASes of Reach, or with
// stop set those up to and including src, if it is among them.
//
// The computation mirrors route export: customer-learned (or originated)
// routes propagate to providers, peers, and customers; peer- or
// provider-learned routes propagate only to customers. That yields the
// classic three phases: uphill from the origin through providers, one
// optional peer hop, then downhill through customers. Every AS enters the
// queue at most once, marked by its topology Index, so the queue and the
// marks are sized once.
func reach(top *topo.Topology, origin topo.ASN, avoid map[topo.ASN]bool, src topo.ASN, stop bool) []topo.ASN {
	if avoid[origin] {
		return nil
	}
	if _, ok := top.Index(origin); !ok {
		return []topo.ASN{origin} // no neighbours: it reaches only itself
	}
	seen := make([]bool, top.NumASes())
	queue := make([]topo.ASN, 0, top.NumASes())
	done := false
	visit := func(a topo.ASN) {
		if i, _ := top.Index(a); !done && !seen[i] && !avoid[a] {
			seen[i] = true
			queue = append(queue, a)
			done = stop && a == src
		}
	}
	visit(origin)
	for i := 0; i < len(queue) && !done; i++ { // uphill
		for _, p := range top.Providers(queue[i]) {
			visit(p)
		}
	}
	for i, up := 0, len(queue); i < up && !done; i++ { // one peer edge off any uphill AS
		for _, p := range top.Peers(queue[i]) {
			visit(p)
		}
	}
	for i := 0; i < len(queue) && !done; i++ { // downhill from everything reached
		for _, c := range top.Customers(queue[i]) {
			visit(c)
		}
	}
	return queue
}

// Avoid1 is a convenience constructor for a single-AS avoid set.
func Avoid1(asn topo.ASN) map[topo.ASN]bool { return map[topo.ASN]bool{asn: true} }

// Observed indexes the AS-level subpaths seen in a body of traceroutes. The
// §2.2 methodology accepts a spliced path only if the three-AS subpath
// centered at the splice point was observed in some real traceroute — an
// empirical stand-in for export-policy compliance.
type Observed struct {
	triples map[[3]topo.ASN]bool
	pairs   map[[2]topo.ASN]bool
}

// NewObserved returns an empty index.
func NewObserved() *Observed {
	return &Observed{
		triples: make(map[[3]topo.ASN]bool),
		pairs:   make(map[[2]topo.ASN]bool),
	}
}

// AddASPath records every consecutive pair and triple of the path.
func (o *Observed) AddASPath(p topo.Path) {
	for i := 0; i+1 < len(p); i++ {
		o.pairs[[2]topo.ASN{p[i], p[i+1]}] = true
	}
	for i := 0; i+2 < len(p); i++ {
		o.triples[[3]topo.ASN{p[i], p[i+1], p[i+2]}] = true
	}
}

// HasTriple reports whether a-b-c was observed.
func (o *Observed) HasTriple(a, b, c topo.ASN) bool {
	return o.triples[[3]topo.ASN{a, b, c}]
}

// HasPair reports whether a-b was observed.
func (o *Observed) HasPair(a, b topo.ASN) bool {
	return o.pairs[[2]topo.ASN{a, b}]
}

// HopPath is a router-level measured path (responsive hops only).
type HopPath []probe.Hop

// asAt returns the AS of the hop at index i.
func (p HopPath) asAt(i int) topo.ASN { return p[i].AS }

// ASPath collapses the hop path to distinct ASes.
func (p HopPath) ASPath() topo.Path {
	var out topo.Path
	for _, h := range p {
		if len(out) == 0 || out[len(out)-1] != h.AS {
			out = append(out, h.AS)
		}
	}
	return out
}

// Splice searches for a working alternate path per §2.2: a path from the
// source (one of fromSrc, measured src→anywhere) that intersects — at a
// shared router — a path that reaches the destination (one of toDst), such
// that the spliced result avoids avoidAS and the AS subpath around the
// splice point passes the observed-subpath test. It returns the first
// (deterministically ordered) valid splice.
func Splice(fromSrc, toDst []HopPath, avoidAS topo.ASN, obs *Observed) (HopPath, bool) {
	// Index routers on destination paths: router -> (path, position).
	type pos struct{ path, idx int }
	index := make(map[topo.RouterID][]pos)
	for pi, p := range toDst {
		for i, h := range p {
			if h.Star {
				continue
			}
			index[h.Router] = append(index[h.Router], pos{path: pi, idx: i})
		}
	}
	for _, sp := range fromSrc {
		for i, h := range sp {
			if h.Star {
				continue
			}
			for _, loc := range index[h.Router] {
				dp := toDst[loc.path]
				cand := make(HopPath, 0, i+1+len(dp)-loc.idx-1)
				cand = append(cand, sp[:i+1]...)
				cand = append(cand, dp[loc.idx+1:]...)
				if !validSplice(cand, sp, i, dp, loc.idx, avoidAS, obs) {
					continue
				}
				return cand, true
			}
		}
	}
	return nil, false
}

func validSplice(cand, srcPart HopPath, si int, dstPart HopPath, di int, avoidAS topo.ASN, obs *Observed) bool {
	for _, h := range cand {
		if !h.Star && h.AS == avoidAS {
			return false
		}
	}
	// Export-policy check: the (up to) three distinct ASes centered at the
	// splice point must have been observed in sequence somewhere.
	at := srcPart.asAt(si)
	var before, after topo.ASN
	hasBefore, hasAfter := false, false
	for j := si - 1; j >= 0; j-- {
		if !srcPart[j].Star && srcPart.asAt(j) != at {
			before, hasBefore = srcPart.asAt(j), true
			break
		}
	}
	for j := di + 1; j < len(dstPart); j++ {
		if !dstPart[j].Star && dstPart.asAt(j) != at {
			after, hasAfter = dstPart.asAt(j), true
			break
		}
	}
	switch {
	case hasBefore && hasAfter:
		return obs.HasTriple(before, at, after)
	case hasBefore:
		return obs.HasPair(before, at)
	case hasAfter:
		return obs.HasPair(at, after)
	default:
		return true // whole path within one AS
	}
}
