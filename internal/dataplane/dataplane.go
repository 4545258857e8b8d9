// Package dataplane forwards packets hop-by-hop over the router graph,
// driven by the BGP engine's instantaneous RIBs. Its defining feature is the
// failure injector: rules that silently drop matching packets at an AS, a
// router, or a (directed) link while leaving the control plane untouched —
// the "router advertises a route but fails to deliver packets" condition the
// paper studies. Unidirectional failures are expressed by scoping a rule to
// a destination prefix or direction, which is what makes traceroute mislead
// and LIFEGUARD's spoofed-probe isolation necessary.
package dataplane

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"

	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
)

// RIB is the routing state the data plane consults; *bgp.Engine satisfies it.
type RIB interface {
	// NextHop is the longest-prefix match for addr at asn, reduced to what
	// forwarding reads of the matched route: deliver here (local), or send
	// to the neighbor AS next. ok is false when asn has no route.
	NextHop(asn topo.ASN, addr netip.Addr) (next topo.ASN, local, ok bool)
	// RIBVersion advances whenever any NextHop result may have changed.
	RIBVersion() uint64
	// FwdVersion advances whenever NextHop at the AS of topology Index i
	// may answer differently: a change of which route matches an address,
	// of its next-hop AS or of local.
	FwdVersion(i int) uint64
	// DstVersion advances whenever NextHop for addr may answer differently
	// at any AS. A cached walk toward addr is valid while either
	// FwdVersion holds still at every AS the walk crossed or
	// DstVersion(addr) holds still (see walkcache.go).
	DstVersion(addr netip.Addr) uint64
}

// DropReason explains why a packet stopped.
type DropReason int

// Packet outcomes. New reasons are appended — the numeric values of
// existing reasons are part of the accounting compatibility surface, and
// the drops-by-reason counter array in planeObs must grow with the enum
// (TestDropCountersCoverEveryReason pins that).
const (
	Delivered DropReason = iota
	NoRoute              // an on-path AS had no route to the destination
	Blackhole            // matched a failure rule
	TTLExpired
	ForwardLoop // forwarding loop guard (beyond TTL accounting)
)

// String names the reason. Unknown values render as "dropreason(N)" —
// stable across enum growth, so forward-compatible consumers can log them
// without aliasing distinct unknown reasons to one string.
func (r DropReason) String() string {
	switch r {
	case Delivered:
		return "delivered"
	case NoRoute:
		return "no-route"
	case Blackhole:
		return "blackhole"
	case TTLExpired:
		return "ttl-expired"
	case ForwardLoop:
		return "forward-loop"
	default:
		return fmt.Sprintf("dropreason(%d)", int(r))
	}
}

// Packet is a forwarded datagram. Src is the claimed source address and is
// spoofable: forwarding consults only Dst, but replies go to Src.
type Packet struct {
	Src netip.Addr
	Dst netip.Addr
	TTL int // hops remaining; 0 means the default of 64
}

// DefaultTTL is used when Packet.TTL is zero.
const DefaultTTL = 64

// Hop records one router the packet transited.
type Hop struct {
	Router topo.RouterID
	AS     topo.ASN
	Addr   netip.Addr
}

// Result reports a packet's fate. Hops lists every router traversed, in
// order, up to and including the router where the packet stopped.
//
// Aliasing contract (mirrors intraPath): Hops may share its backing array
// with the plane's walk cache and with other Results for the same header,
// so callers read it and never write through it. Its length is its
// capacity, so an append reallocates. The hops never change under a caller:
// re-walking a header stores the new walk in fresh space.
type Result struct {
	Reason DropReason
	Hops   []Hop
	// LastAS/LastRouter locate where the packet stopped (delivery router
	// for Delivered, drop point otherwise). Valid when len(Hops) > 0.
	LastAS     topo.ASN
	LastRouter topo.RouterID
}

// Delivered reports whether the packet reached its destination.
func (r *Result) Delivered() bool { return r.Reason == Delivered }

// String renders the fate on one line: the reason, where the packet
// stopped, and how many hops it took to get there.
func (r *Result) String() string {
	if len(r.Hops) == 0 {
		return r.Reason.String()
	}
	return fmt.Sprintf("%s at AS%d (router %d) after %d hops",
		r.Reason, r.LastAS, r.LastRouter, len(r.Hops))
}

// ASPath returns the distinct ASes traversed, in order.
func (r *Result) ASPath() topo.Path {
	var p topo.Path
	for _, h := range r.Hops {
		if len(p) == 0 || p[len(p)-1] != h.AS {
			p = append(p, h.AS)
		}
	}
	return p
}

// FailureID names an installed failure rule.
type FailureID int

// Rule describes one silent data-plane failure. Zero-valued matchers are
// wildcards; a rule drops a packet when all its non-zero matchers agree.
type Rule struct {
	// AtAS drops packets forwarded by any router of this AS.
	AtAS topo.ASN
	// AtRouter drops packets transiting one router (HasRouter gates it,
	// since RouterID 0 is valid).
	AtRouter  topo.RouterID
	HasRouter bool
	// FromRouter/ToRouter drop packets crossing a specific router link in
	// that direction.
	FromRouter, ToRouter topo.RouterID
	HasLink              bool
	// FromAS/ToAS drop packets crossing any border link from FromAS to
	// ToAS (directed AS-level link failure; install the mirror rule too
	// for a bidirectional failure).
	FromAS, ToAS topo.ASN
	// DstWithin/SrcWithin restrict the rule to matching destinations or
	// (claimed) sources. This is how unidirectional AS failures are
	// expressed: "AS X drops everything destined to prefix P".
	DstWithin, SrcWithin netip.Prefix
	// TransitOnly exempts packets destined to the failed AS itself, for
	// modelling faults that only affect through-traffic.
	TransitOnly bool
	// DropProb, when in (0, 1), makes the rule probabilistic: a matching
	// packet is dropped only for that fraction of packets. The decision is
	// a pure hash of (ProbSeed, per-packet sequence number), so a run is
	// still a deterministic replay — the same packet stream meets the same
	// fate regardless of rule iteration order or how many routers of the
	// matched AS the packet crosses. Zero means always drop (the classic
	// deterministic rule); >= 1 also always drops.
	DropProb float64
	// ProbSeed decorrelates concurrent probabilistic rules; two rules with
	// different seeds drop independent packet subsets.
	ProbSeed uint64
}

// BlackholeAS returns a rule dropping all traffic forwarded by asn.
func BlackholeAS(asn topo.ASN) Rule { return Rule{AtAS: asn} }

// BlackholeASTowards returns a rule where asn silently drops traffic
// destined to dst — the canonical unidirectional ("reverse path") failure.
func BlackholeASTowards(asn topo.ASN, dst netip.Prefix) Rule {
	return Rule{AtAS: asn, DstWithin: dst}
}

// BlackholeRouter returns a rule dropping all traffic through one router.
func BlackholeRouter(id topo.RouterID) Rule {
	return Rule{AtRouter: id, HasRouter: true}
}

// DropASLink returns a rule dropping traffic crossing from AS a to AS b.
func DropASLink(a, b topo.ASN) Rule { return Rule{FromAS: a, ToAS: b} }

// DropRouterLink returns a rule dropping traffic crossing the router link
// a→b.
func DropRouterLink(a, b topo.RouterID) Rule {
	return Rule{FromRouter: a, ToRouter: b, HasLink: true}
}

// LossyAS returns a probabilistic rule: asn drops each forwarded packet
// independently with probability prob (seed decorrelates concurrent lossy
// rules). See Rule.DropProb for the determinism contract.
func LossyAS(asn topo.ASN, prob float64, seed uint64) Rule {
	return Rule{AtAS: asn, DropProb: prob, ProbSeed: seed}
}

// Plane forwards packets. It is cheap to construct, and a single Plane
// serves an entire simulation. Besides the installed rules it carries the
// per-packet sequence counter and two memos — intra-AS paths (valid forever)
// and whole walks (each valid until something it read changes) — all owned by
// the single goroutine that drives the simulation.
type Plane struct {
	top *topo.Topology
	rib RIB
	// failures holds the active rules in ascending ID order (AddFailure
	// appends ever-larger IDs), so the per-router rule scan walks a slice
	// rather than paying a map iterator on every hop.
	failures []activeRule
	nextID   FailureID
	// seq numbers every packet injected via Forward; probabilistic rules
	// hash it so their verdicts are per-packet, order-independent pure
	// functions (see Rule.DropProb).
	seq uint64
	// pathCache memoizes intraPath results. Intra-AS shortest paths are a
	// pure function of the immutable topology, and probes re-walk the same
	// router pairs constantly, so the BFS (and its per-hop allocations)
	// runs once per pair for the lifetime of the plane. The simulation
	// core is single-goroutine, like the engine it consults.
	pathCache map[[2]topo.RouterID][]topo.RouterID
	// walks memoizes whole forwarding walks (see walkcache.go); gen counts
	// the times it was emptied, which is when a Flow's entry goes stale.
	walks map[walkKey]*walkEntry
	gen   uint64
	// hopBuf is the scratch every walk records its hops in; slab is the
	// chunk stored walks' hops are carved from (see Plane.keep).
	hopBuf []Hop
	slab   []Hop

	obs planeObs
}

// activeRule is one installed rule under its handle.
type activeRule struct {
	id   FailureID
	rule Rule
}

// planeObs holds the plane's metric handles; all nil (one branch per
// packet) until Instrument is called.
type planeObs struct {
	forwarded *obs.Counter
	// drops is indexed by DropReason; the Delivered slot stays nil.
	drops [ForwardLoop + 1]*obs.Counter
	// Walk-cache traffic, indexed by walkOutcome (the bypass slot stays
	// nil); entries re-walked because what they read changed; entries that
	// stood although an AS they crossed changed (not for their
	// destination); entries a rule change killed; and whole-cache drops at
	// walkCacheCap.
	cacheOutcomes  [walkMiss + 1]*obs.Counter
	cacheStale     *obs.Counter
	cacheKept      *obs.Counter
	cacheRuleKills *obs.Counter
	cacheFull      *obs.Counter
}

// Instrument registers the plane's metrics: packets injected, drops broken
// down by reason (no-route, blackhole, ttl-expired, forward-loop), and the
// walk cache's hits, misses, stale and kept entries, rule kills and size-cap
// flushes. Counting
// happens outside the forwarding walk, so instrumented and uninstrumented
// planes forward identically.
func (pl *Plane) Instrument(reg *obs.Registry) {
	reg.Describe("lifeguard_dataplane_packets_forwarded_total", "packets injected into the data plane")
	reg.Describe("lifeguard_dataplane_packets_dropped_total", "packets that did not reach their destination, by reason")
	reg.Describe("lifeguard_dataplane_walk_cache_hits_total", "packets whose fate was answered from the walk cache")
	reg.Describe("lifeguard_dataplane_walk_cache_misses_total", "packets walked hop by hop and stored in the walk cache")
	reg.Describe("lifeguard_dataplane_walk_cache_stale_total", "cached walks re-walked (and counted as misses) because what they read changed: their destination's forwarding at some AS and an AS they crossed, or a rule that admits their header at an AS they crossed")
	reg.Describe("lifeguard_dataplane_walk_cache_kept_total", "cached walks that stood although an AS they crossed changed its forwarding, because no AS changed it for their destination")
	reg.Describe("lifeguard_dataplane_walk_cache_rule_kills_total", "cached walks marked dead by a failure rule being installed or removed")
	reg.Describe("lifeguard_dataplane_walk_cache_flushes_total", "times the whole walk cache was dropped, by cause (full: it reached its size cap)")
	pl.obs.forwarded = reg.Counter("lifeguard_dataplane_packets_forwarded_total")
	for r := NoRoute; r <= ForwardLoop; r++ {
		pl.obs.drops[r] = reg.Counter("lifeguard_dataplane_packets_dropped_total", obs.L("reason", r.String()))
	}
	pl.obs.cacheOutcomes[walkHit] = reg.Counter("lifeguard_dataplane_walk_cache_hits_total")
	pl.obs.cacheOutcomes[walkMiss] = reg.Counter("lifeguard_dataplane_walk_cache_misses_total")
	pl.obs.cacheStale = reg.Counter("lifeguard_dataplane_walk_cache_stale_total")
	pl.obs.cacheKept = reg.Counter("lifeguard_dataplane_walk_cache_kept_total")
	pl.obs.cacheRuleKills = reg.Counter("lifeguard_dataplane_walk_cache_rule_kills_total")
	pl.obs.cacheFull = reg.Counter("lifeguard_dataplane_walk_cache_flushes_total", obs.L("cause", "full"))
}

// New returns a data plane over the topology, consulting rib at each AS.
func New(top *topo.Topology, rib RIB) *Plane {
	return &Plane{
		top:       top,
		rib:       rib,
		pathCache: make(map[[2]topo.RouterID][]topo.RouterID),
		walks:     make(map[walkKey]*walkEntry),
	}
}

// touchRule kills the cached walks that installing or removing r can
// change: those whose header r's DstWithin/SrcWithin admit and that crossed
// an AS in r's scope — AtAS, the AS of AtRouter, both ends of an AS link and
// of a router link. An AS or router the topology does not have can match no
// hop and is skipped. Every live entry is in pl.walks (see walkcache.go), so
// the scan reaches the ones Flows hold too.
func (pl *Plane) touchRule(r *Rule) {
	scope := make([]int32, 0, 6)
	for _, asn := range [...]topo.ASN{r.AtAS, r.FromAS, r.ToAS} {
		if i, ok := pl.top.Index(asn); ok {
			scope = append(scope, int32(i))
		}
	}
	for _, rt := range [...]struct {
		set bool
		id  topo.RouterID
	}{{r.HasRouter, r.AtRouter}, {r.HasLink, r.FromRouter}, {r.HasLink, r.ToRouter}} {
		if rt.set && int(rt.id) < pl.top.NumRouters() {
			i, _ := pl.top.Index(pl.top.Router(rt.id).AS)
			scope = append(scope, int32(i))
		}
	}
	if len(scope) == 0 {
		return
	}
	for key, e := range pl.walks {
		if !e.live || !r.admits(addr4(key.src), addr4(key.dst)) {
			continue
		}
		if slices.ContainsFunc(e.stamps, func(s asStamp) bool { return slices.Contains(scope, s.as) }) {
			e.live = false
			pl.obs.cacheRuleKills.Inc()
		}
	}
}

// AddFailure installs a failure rule and returns its handle.
//
// ID lifecycle contract: FailureIDs are allocated from a counter that is
// monotone over the Plane's whole lifetime. Neither RemoveFailure nor
// ClearFailures ever recycles an ID, so a stale handle kept across heavy
// inject/heal churn (the chaos engine's steady state) can never silently
// alias a newer, unrelated rule — RemoveFailure on a freed ID reports
// false forever. dataplane's TestFailureIDsNeverReused pins this.
func (pl *Plane) AddFailure(r Rule) FailureID {
	pl.nextID++
	pl.failures = append(pl.failures, activeRule{id: pl.nextID, rule: r})
	pl.touchRule(&r)
	return pl.nextID
}

// findFailure returns id's position in failures, false when it is not active.
func (pl *Plane) findFailure(id FailureID) (int, bool) {
	return slices.BinarySearchFunc(pl.failures, id, func(a activeRule, id FailureID) int {
		return cmp.Compare(a.id, id)
	})
}

// RemoveFailure uninstalls a rule; it reports whether the rule existed.
// The freed ID is retired, never reused (see AddFailure).
func (pl *Plane) RemoveFailure(id FailureID) bool {
	i, ok := pl.findFailure(id)
	if !ok {
		return false
	}
	pl.touchRule(&pl.failures[i].rule)
	pl.failures = slices.Delete(pl.failures, i, i+1)
	return true
}

// ClearFailures removes all rules. The ID counter is not reset: handles
// freed here stay retired (see AddFailure).
func (pl *Plane) ClearFailures() {
	for i := range pl.failures {
		pl.touchRule(&pl.failures[i].rule)
	}
	pl.failures = pl.failures[:0]
}

// Failure returns the rule installed under id, if it is still active.
// Chaos healing uses it to verify a handle names the rule the caller
// thinks it does before removing it.
func (pl *Plane) Failure(id FailureID) (Rule, bool) {
	i, ok := pl.findFailure(id)
	if !ok {
		return Rule{}, false
	}
	return pl.failures[i].rule, true
}

// ActiveFailures reports the number of installed rules.
func (pl *Plane) ActiveFailures() int { return len(pl.failures) }

// matchCtx carries the packet context rules are evaluated against.
type matchCtx struct {
	pkt   Packet
	dstAS topo.ASN // owner of the destination address block
	seq   uint64   // per-packet sequence number for probabilistic rules
	// losses, when set, takes the lossy rules met in place of their
	// verdicts (see walkcache.go).
	losses *[]lossPoint
}

func (pl *Plane) dropAtRouter(c *matchCtx, r topo.RouterID, hop int) bool {
	as := pl.top.Router(r).AS
	for i := range pl.failures {
		rule := &pl.failures[i].rule
		if rule.HasLink || (rule.FromAS != 0 || rule.ToAS != 0) {
			continue // link rules checked at crossings
		}
		if rule.AtAS != 0 && rule.AtAS != as {
			continue
		}
		if rule.HasRouter && rule.AtRouter != r {
			continue
		}
		if rule.AtAS == 0 && !rule.HasRouter {
			continue // empty rule matches nothing
		}
		if rule.TransitOnly && c.dstAS == as {
			continue
		}
		if !c.drops(rule, hop) {
			continue
		}
		return true
	}
	return false
}

func (pl *Plane) dropAtCrossing(c *matchCtx, from, to topo.RouterID, hop int) bool {
	fromAS, toAS := pl.top.Router(from).AS, pl.top.Router(to).AS
	for i := range pl.failures {
		rule := &pl.failures[i].rule
		switch {
		case rule.HasLink:
			if rule.FromRouter != from || rule.ToRouter != to {
				continue
			}
		case rule.FromAS != 0 || rule.ToAS != 0:
			if rule.FromAS != fromAS || rule.ToAS != toAS {
				continue
			}
		default:
			continue
		}
		if !c.drops(rule, hop) {
			continue
		}
		return true
	}
	return false
}

// probabilistic reports whether the rule's verdict varies packet by packet
// (a fractional DropProb) rather than being a function of the header.
func (r *Rule) probabilistic() bool { return r.DropProb > 0 && r.DropProb < 1 }

// admits reports whether the rule's DstWithin/SrcWithin let a header
// through to its other matchers.
func (r *Rule) admits(src, dst netip.Addr) bool {
	return (!r.DstWithin.IsValid() || r.DstWithin.Contains(dst)) &&
		(!r.SrcWithin.IsValid() || r.SrcWithin.Contains(src))
}

// drops reports whether r, whose location the packet meets at Hops[hop],
// drops it; a lossy r draws for c.seq, or is noted in c.losses and passed.
func (c *matchCtx) drops(r *Rule, hop int) bool {
	if !r.admits(c.pkt.Src, c.pkt.Dst) {
		return false
	}
	if !r.probabilistic() {
		return true
	}
	if c.losses != nil {
		*c.losses = append(*c.losses, lossPoint{hop: hop, seed: r.ProbSeed, prob: r.DropProb})
		return false
	}
	return lost(r.ProbSeed, c.seq, r.DropProb)
}

// lost is a lossy rule's verdict on the packet numbered seq: a hash of
// (seed, seq) in [0, 1) against prob — per-packet, not per-hop, loss,
// independent across rules with different seeds.
func lost(seed, seq uint64, prob float64) bool {
	return float64(splitmix64(seed^seq)>>11)/(1<<53) < prob
}

// splitmix64 is the SplitMix64 finalizer — a cheap, high-quality bijective
// hash used to turn (rule seed, packet sequence) into a drop verdict.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Forward injects pkt at router "from" (the sender's gateway) and reports
// its fate. The sender's own router does not consume TTL. The fate comes
// from the walk cache while nothing the cached walk read has changed and is
// walked hop by hop otherwise; the two are indistinguishable to the caller
// except that Result.Hops is shared (see Result).
func (pl *Plane) Forward(from topo.RouterID, pkt Packet) Result {
	res, how := pl.walk(from, pkt)
	pl.note(&res, how, 1)
	return res
}

// forward is the uncached hop-by-hop walk, the reference every cached
// answer must equal. Its Hops are its own.
func (pl *Plane) forward(from topo.RouterID, pkt Packet) Result {
	res := pl.walkFrom(from, pkt, nil)
	res.Hops = append(make([]Hop, 0, len(res.Hops)), res.Hops...)
	return res
}

// walkFrom is forward, except that with losses set it passes the lossy rules
// it meets and appends them to *losses in hop order, and that its Hops are
// pl.hopBuf: the plane's scratch, overwritten by the next walk, so a caller
// copies out what it keeps.
func (pl *Plane) walkFrom(from topo.RouterID, pkt Packet, losses *[]lossPoint) Result {
	pl.seq++
	c := &matchCtx{pkt: pkt, seq: pl.seq, losses: losses}
	if owner, ok := topo.OwnerOf(pkt.Dst); ok {
		c.dstAS = owner
	}
	pl.hopBuf = pl.hopBuf[:0]
	why := pl.hops(c, from)
	h := pl.hopBuf[len(pl.hopBuf)-1] // the injecting router is always recorded
	return Result{Reason: why, Hops: pl.hopBuf, LastAS: h.AS, LastRouter: h.Router}
}

// hops walks c's packet from router "from", appending every router it
// visits to pl.hopBuf, and reports why it stopped.
func (pl *Plane) hops(c *matchCtx, from topo.RouterID) DropReason {
	ttl := c.pkt.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	cur := from
	first := true
	step := func(r topo.RouterID) DropReason {
		// Record the hop, spend TTL, apply router-scoped rules.
		rt := pl.top.Router(r)
		pl.hopBuf = append(pl.hopBuf, Hop{Router: r, AS: rt.AS, Addr: rt.Addr})
		if !first {
			ttl--
			if ttl <= 0 {
				return TTLExpired
			}
		}
		first = false
		if pl.dropAtRouter(c, r, len(pl.hopBuf)-1) {
			return Blackhole
		}
		return Delivered
	}

	if rsn := step(cur); rsn != Delivered {
		return rsn
	}

	for {
		if len(pl.hopBuf) > 4*DefaultTTL {
			return ForwardLoop
		}
		curAS := pl.top.Router(cur).AS
		nextAS, local, ok := pl.rib.NextHop(curAS, c.pkt.Dst)
		if !ok {
			return NoRoute
		}
		if local {
			// Local delivery: walk to the destination router, or to
			// the AS hub standing in for prefix-hosted addresses.
			target := pl.hostRouter(curAS, c.pkt.Dst)
			for _, r := range pl.intraPath(cur, target) {
				if rsn := step(r); rsn != Delivered {
					return rsn
				}
			}
			return Delivered
		}
		borders := pl.top.BorderRouters(curAS, nextAS)
		if len(borders) == 0 {
			panic(fmt.Sprintf("dataplane: AS %d routes to non-adjacent AS %d", curAS, nextAS))
		}
		egress, ingress := borders[0][0], borders[0][1]
		for _, r := range pl.intraPath(cur, egress) {
			if rsn := step(r); rsn != Delivered {
				return rsn
			}
		}
		if pl.dropAtCrossing(c, egress, ingress, len(pl.hopBuf)-1) {
			return Blackhole
		}
		if rsn := step(ingress); rsn != Delivered {
			return rsn
		}
		cur = ingress
	}
}

// hostRouter resolves the router that terminates dst inside asn: the exact
// router if dst is an interface address, otherwise the AS hub (first
// router), which stands in for hosts of announced prefixes. asn is the AS of
// the router the packet is at, so it has a first router.
func (pl *Plane) hostRouter(asn topo.ASN, dst netip.Addr) topo.RouterID {
	if r, ok := pl.top.RouterByAddr(dst); ok && r.AS == asn {
		return r.ID
	}
	return pl.top.AS(asn).Routers[0]
}

// intraPath returns the routers strictly after "from" on the shortest
// intra-AS path from → to (empty when from == to). BFS over intra-AS links;
// ties break by adjacency order, which is fixed at Build time. Results are
// memoized in pathCache; callers iterate the returned slice but must not
// mutate it. A "to" in another AS has no such path.
func (pl *Plane) intraPath(from, to topo.RouterID) []topo.RouterID {
	if from == to {
		return nil
	}
	key := [2]topo.RouterID{from, to}
	if p, ok := pl.pathCache[key]; ok {
		return p
	}
	asn := pl.top.Router(from).AS
	prev := map[topo.RouterID]topo.RouterID{from: from}
	queue := []topo.RouterID{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			break
		}
		for _, n := range pl.top.RouterNeighbors(cur) {
			if pl.top.Router(n).AS != asn {
				continue
			}
			if _, seen := prev[n]; !seen {
				prev[n] = cur
				queue = append(queue, n)
			}
		}
	}
	if _, ok := prev[to]; !ok {
		panic(fmt.Sprintf("dataplane: no intra-AS path %d -> %d in AS %d", from, to, asn))
	}
	var rev []topo.RouterID
	for cur := to; cur != from; cur = prev[cur] {
		rev = append(rev, cur)
	}
	out := make([]topo.RouterID, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	pl.pathCache[key] = out
	return out
}
