// Package topo models the simulated internetwork: autonomous systems with
// Gao–Rexford business relationships, routers inside ASes, the links between
// them, and the address blocks each AS owns. It is the substrate every other
// package builds on: the BGP engine computes routes over the AS graph, and
// the data plane forwards probes hop-by-hop over the router graph.
package topo

import (
	"fmt"
	"net/netip"
	"slices"
)

// ASN identifies an autonomous system. The simulator supports 32-bit ASNs
// (RFC 6793), so control-plane studies can use the full modern numbering
// space. The address plan in addr.go still derives /16 blocks from the low
// 16 bits, so ASes above MaxASN participate in routing but own no address
// block.
type ASN uint32

// RouterID indexes a router within a Topology.
type RouterID uint32

// Rel is the business relationship of a neighbor from an AS's point of view.
type Rel int8

// Relationship values follow the Gao–Rexford model.
const (
	RelNone     Rel = iota // not adjacent
	RelCustomer            // the neighbor is my customer (routes most preferred)
	RelPeer                // settlement-free peer
	RelProvider            // the neighbor is my provider (routes least preferred)
)

// String returns the relationship name.
func (r Rel) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	default:
		return "none"
	}
}

// Invert flips the relationship to the other party's point of view.
func (r Rel) Invert() Rel {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return r
	}
}

// AS describes one autonomous system, including the policy quirks from §7.1
// of the paper that affect whether poisoning works against it.
type AS struct {
	ASN  ASN
	Name string
	// Tier is 1 for the clique of transit-free networks, 2 for other
	// transit networks, 3 for stubs. Informational; policy derives from
	// relationships, not tiers.
	Tier int

	// MaxOwnASOccurs is the number of times this AS tolerates its own ASN
	// in a received path before rejecting it as a loop. 1 is standard BGP.
	// 2 models AS286-style remote-site configurations (a single poison is
	// accepted; a doubled poison is dropped). 0 disables loop detection
	// entirely — such an AS cannot be poisoned at all.
	MaxOwnASOccurs int

	// FilterPeersFromCustomers models Cogent-style filtering: reject any
	// route learned from a customer whose AS path contains one of this
	// AS's peers (§7.1).
	FilterPeersFromCustomers bool

	// Routers lists the routers belonging to this AS.
	Routers []RouterID
}

// Router is a single forwarding element. Routers give traceroute its
// hop-by-hop detail and carry the responsiveness quirks that make failure
// isolation hard.
type Router struct {
	ID   RouterID
	AS   ASN
	Name string
	Addr netip.Addr

	// Responsive is false for routers configured to ignore ICMP probes.
	// The atlas records this so isolation can distinguish "configured
	// silent" from "cut off" (§4.1.2).
	Responsive bool

	// RateLimitPerRound caps how many probe replies the router sends per
	// monitoring round; 0 means unlimited.
	RateLimitPerRound int
}

// ASPair is a canonically-ordered pair of ASNs, used as a map key for
// AS-level adjacencies.
type ASPair struct{ Lo, Hi ASN }

// MakeASPair builds the canonical pair for (a, b).
func MakeASPair(a, b ASN) ASPair {
	if a > b {
		a, b = b, a
	}
	return ASPair{Lo: a, Hi: b}
}

// Path is an AS-level path, origin last (so path[0] is the AS adjacent to
// the viewer and path[len-1] originated the prefix), matching how BGP AS
// paths read.
type Path []ASN

// Contains reports whether the path includes asn.
func (p Path) Contains(asn ASN) bool { return p.Count(asn) > 0 }

// Count returns the number of occurrences of asn in the path.
func (p Path) Count(asn ASN) int {
	n := 0
	for _, a := range p {
		if a == asn {
			n++
		}
	}
	return n
}

// Origin returns the last AS in the path and false if the path is empty.
func (p Path) Origin() (ASN, bool) {
	if len(p) == 0 {
		return 0, false
	}
	return p[len(p)-1], true
}

// Clone returns an independent copy.
func (p Path) Clone() Path { return append(Path(nil), p...) }

// Equal reports element-wise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Prepend returns a new path with asn at the front.
func (p Path) Prepend(asn ASN) Path {
	out := make(Path, 0, len(p)+1)
	out = append(out, asn)
	return append(out, p...)
}

// String renders the path as "3356 174 7018".
func (p Path) String() string {
	s := ""
	for i, a := range p {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d", a)
	}
	return s
}

// Topology is the immutable internetwork a simulation runs over. Build one
// with a Builder. Mutable per-run state (RIBs, failures) lives elsewhere.
//
// Every AS has a dense index, its position in ASNs() (Index), and the AS
// graph is stored in compressed rows by it. The per-AS tables below are
// read at the AS's slot, Index+1; slot 0 stands for every AS the topology
// lacks: no record, no roles, an empty row. The AS in slot s has edges
// off[s] to off[s+1] of nbrs, rels and borders, its neighbors ascending.
type Topology struct {
	// low is indexed by ASN and holds the slots of the ASNs up to MaxASN,
	// those the address plan gives a block; high, the one map keyed by ASN,
	// holds the rest. Both read 0 for an AS the topology lacks. Rel is
	// refsolve's inner loop, and a table lookup is a fraction of a map's.
	low       []int32
	high      map[ASN]int32
	asList    []ASN // ascending, Index's inverse
	ases      []*AS // by slot
	hierarchy []ASN // each AS after all of its providers (Hierarchy)
	routers   []Router
	routerAdj [][]RouterID // by router ID

	off  []int32 // by slot, and one more
	nbrs []ASN
	// rels and borders hold one edge more than nbrs: the last, RelNone and
	// no border routers, is what edge returns for ASes that are not adjacent.
	rels    []Rel
	borders [][][2]RouterID // (local, remote) router pairs, in link creation order
	// roles[s] is slot s's row split by relationship (Rel-1), each part
	// ascending and clipped to its length, an empty part nil.
	roles [][3][]ASN
}

// AS returns the AS record for asn, or nil if unknown.
func (t *Topology) AS(asn ASN) *AS { return t.ases[t.slot(asn)] }

// slot returns asn's slot, 0 for an AS the topology lacks.
func (t *Topology) slot(asn ASN) int32 {
	if int(asn) < len(t.low) {
		return t.low[asn]
	}
	return t.high[asn]
}

// Index returns asn's position in ASNs(), the dense index every per-AS table
// is laid out by, and false for an AS the topology does not have.
func (t *Topology) Index(asn ASN) (int, bool) {
	s := t.slot(asn)
	return int(s) - 1, s > 0
}

// ASNs returns all ASNs in ascending order.
func (t *Topology) ASNs() []ASN { return t.asList }

// Hierarchy returns every ASN once, each after all of its providers, as
// Build peeled them: the topology's own list, to read and not to modify.
func (t *Topology) Hierarchy() []ASN { return t.hierarchy }

// NumASes reports the number of ASes.
func (t *Topology) NumASes() int { return len(t.asList) }

// NumRouters reports the number of routers.
func (t *Topology) NumRouters() int { return len(t.routers) }

// Router returns the router record for id.
func (t *Topology) Router(id RouterID) *Router { return &t.routers[id] }

// RouterByAddr resolves an interface address to its router, by arithmetic:
// Builder.AddRouter is the only place a router gets an address, and it is
// always RouterAddr(asn, its index in the AS's Routers).
func (t *Topology) RouterByAddr(a netip.Addr) (*Router, bool) {
	asn, ok := OwnerOf(a)
	if !ok {
		return nil, false
	}
	as := t.AS(asn)
	b := a.As4()
	idx := int(b[2])<<8 | int(b[3])
	if as == nil || idx >= len(as.Routers) {
		return nil, false
	}
	return &t.routers[as.Routers[idx]], true
}

// RouterFor resolves the router that stands for a target address: the
// router whose interface it is, else the first router (the hub) of the AS
// whose block holds it. It fails for an address outside every block and
// for a block whose AS does not exist.
func (t *Topology) RouterFor(a netip.Addr) (RouterID, bool) {
	if r, ok := t.RouterByAddr(a); ok {
		return r.ID, true
	}
	asn, ok := OwnerOf(a)
	if !ok {
		return 0, false
	}
	as := t.AS(asn)
	if as == nil || len(as.Routers) == 0 {
		return 0, false
	}
	return as.Routers[0], true
}

// row returns asn's span of the edge arrays, empty for an unknown AS.
func (t *Topology) row(asn ASN) (lo, hi int32) {
	s := t.slot(asn)
	return t.off[s], t.off[s+1]
}

// edge returns b's position in a's row of the edge arrays, or the last
// edge of rels and borders, the sentinel, when the two are not adjacent.
func (t *Topology) edge(a, b ASN) int32 {
	lo, end := t.row(a)
	if j, ok := slices.BinarySearch(t.nbrs[lo:end], b); ok {
		return lo + int32(j)
	}
	return int32(len(t.nbrs))
}

// Rel reports the relationship of neighbor as seen from asn.
func (t *Topology) Rel(asn, neighbor ASN) Rel { return t.rels[t.edge(asn, neighbor)] }

// Adjacent reports whether two ASes have a relationship.
func (t *Topology) Adjacent(a, b ASN) bool { return t.Rel(a, b) != RelNone }

// Neighbors returns asn's neighbor ASNs in ascending order. Like Customers,
// Providers and Peers it returns the topology's own row, clipped to its
// length: read it, or append to it (which copies), but do not reorder or
// overwrite it in place.
func (t *Topology) Neighbors(asn ASN) []ASN {
	lo, hi := t.row(asn)
	return t.nbrs[lo:hi:hi]
}

// NeighborIndex returns b's position in Neighbors(a), or -1 if the two are
// not adjacent.
func (t *Topology) NeighborIndex(a, b ASN) int {
	if j, ok := slices.BinarySearch(t.Neighbors(a), b); ok {
		return j
	}
	return -1
}

// Customers returns asn's customer ASNs in ascending order.
func (t *Topology) Customers(asn ASN) []ASN { return t.role(asn, RelCustomer) }

// Providers returns asn's provider ASNs in ascending order.
func (t *Topology) Providers(asn ASN) []ASN { return t.role(asn, RelProvider) }

// Peers returns asn's peer ASNs in ascending order.
func (t *Topology) Peers(asn ASN) []ASN { return t.role(asn, RelPeer) }

func (t *Topology) role(asn ASN, r Rel) []ASN { return t.roles[t.slot(asn)][r-1] }

// RouterNeighbors returns the routers adjacent to id.
func (t *Topology) RouterNeighbors(id RouterID) []RouterID { return t.routerAdj[id] }

// BorderRouters returns, for AS a, the router pairs (local, remote) that
// connect a to neighbor b, in link creation order. The slice is shared:
// callers must not modify it.
func (t *Topology) BorderRouters(a, b ASN) [][2]RouterID { return t.borders[t.edge(a, b)] }
