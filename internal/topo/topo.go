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
	"sort"
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

// Link is an undirected adjacency between two routers. A link whose
// endpoints are in different ASes realizes an AS-level adjacency.
type Link struct {
	A, B RouterID
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
type Topology struct {
	ases    map[ASN]*AS
	asList  []ASN // sorted, for deterministic iteration
	routers []Router
	links   []Link

	rels map[ASN]map[ASN]Rel
	// byRel[asn][rel-1] lists asn's neighbors with that relationship, sorted
	// (see indexByRel): splice.Reach asks per visited AS.
	byRel map[ASN]*[3][]ASN

	// routerAdj is the undirected router-level adjacency list.
	routerAdj map[RouterID][]RouterID
	// asBorder[pair] lists the router-level links realizing an AS adjacency.
	asBorder map[ASPair][]Link
	// borderRouters[{a, b}] is asBorder oriented from a's side, built once
	// so the data plane's per-AS-hop lookup allocates nothing.
	borderRouters map[[2]ASN][][2]RouterID
}

// AS returns the AS record for asn, or nil if unknown.
func (t *Topology) AS(asn ASN) *AS { return t.ases[asn] }

// ASNs returns all ASNs in ascending order.
func (t *Topology) ASNs() []ASN { return t.asList }

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
	as := t.ases[asn]
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
	as := t.ases[asn]
	if as == nil || len(as.Routers) == 0 {
		return 0, false
	}
	return as.Routers[0], true
}

// Rel reports the relationship of neighbor as seen from asn.
func (t *Topology) Rel(asn, neighbor ASN) Rel {
	return t.rels[asn][neighbor]
}

// Neighbors returns asn's neighbor ASNs in ascending order.
func (t *Topology) Neighbors(asn ASN) []ASN {
	m := t.rels[asn]
	out := make([]ASN, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Customers returns asn's customer ASNs in ascending order. Like Providers
// and Peers it returns the topology's own list, computed at Build: read it,
// or append to it (which copies), but do not reorder or overwrite it in
// place.
func (t *Topology) Customers(asn ASN) []ASN { return t.neighborsWithRel(asn, RelCustomer) }

// Providers returns asn's provider ASNs in ascending order.
func (t *Topology) Providers(asn ASN) []ASN { return t.neighborsWithRel(asn, RelProvider) }

// Peers returns asn's peer ASNs in ascending order.
func (t *Topology) Peers(asn ASN) []ASN { return t.neighborsWithRel(asn, RelPeer) }

func (t *Topology) neighborsWithRel(asn ASN, want Rel) []ASN {
	if l := t.byRel[asn]; l != nil {
		return l[want-1]
	}
	return nil
}

// indexByRel computes, once, what Customers, Providers and Peers return: per
// AS its neighbors partitioned by relationship, each part in ascending order.
// The three parts of an AS share one array and are clipped to their length,
// so a caller's append to one reallocates instead of writing into the next;
// an empty part is nil.
func (t *Topology) indexByRel() {
	t.byRel = make(map[ASN]*[3][]ASN, len(t.rels))
	for asn := range t.rels {
		nbrs := t.Neighbors(asn)
		parts, store := new([3][]ASN), make([]ASN, 0, len(nbrs))
		for rel := RelCustomer; rel <= RelProvider; rel++ {
			from := len(store)
			for _, n := range nbrs {
				if t.rels[asn][n] == rel {
					store = append(store, n)
				}
			}
			if len(store) > from {
				parts[rel-1] = slices.Clip(store[from:])
			}
		}
		t.byRel[asn] = parts
	}
}

// Adjacent reports whether two ASes have a relationship.
func (t *Topology) Adjacent(a, b ASN) bool { return t.rels[a][b] != RelNone }

// BorderLinks returns the router-level links that realize the AS adjacency
// (a, b), in creation order.
func (t *Topology) BorderLinks(a, b ASN) []Link {
	return t.asBorder[MakeASPair(a, b)]
}

// RouterNeighbors returns the routers adjacent to id.
func (t *Topology) RouterNeighbors(id RouterID) []RouterID { return t.routerAdj[id] }

// IntraASNeighbors returns the routers adjacent to id within the same AS.
func (t *Topology) IntraASNeighbors(id RouterID) []RouterID {
	self := t.routers[id].AS
	var out []RouterID
	for _, n := range t.routerAdj[id] {
		if t.routers[n].AS == self {
			out = append(out, n)
		}
	}
	return out
}

// BorderRouters returns, for AS a, the router pairs (local, remote) that
// connect a to neighbor b, in link creation order. The slice is shared:
// callers must not modify it.
func (t *Topology) BorderRouters(a, b ASN) [][2]RouterID {
	return t.borderRouters[[2]ASN{a, b}]
}
