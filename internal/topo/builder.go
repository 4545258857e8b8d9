package topo

import (
	"cmp"
	"fmt"
	"slices"
)

// Builder assembles a Topology. Methods panic on impossible inputs (unknown
// AS, relating an AS to itself): topology construction is programmer-driven
// and such errors are bugs, not runtime conditions. Build validates global
// invariants and returns an error for inconsistencies that only appear once
// the whole graph is known.
type Builder struct {
	ases    map[ASN]*AS
	asOrder []ASN
	routers []Router
	links   [][2]RouterID
	rels    map[ASPair]Rel // Hi's relationship as seen from Lo
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		ases: make(map[ASN]*AS),
		rels: make(map[ASPair]Rel),
	}
}

// AddAS registers an AS. The returned pointer may be used to set policy
// quirks before Build. Adding a duplicate ASN panics.
func (b *Builder) AddAS(asn ASN, name string) *AS {
	if _, dup := b.ases[asn]; dup {
		panic(fmt.Sprintf("topo: duplicate AS %d", asn))
	}
	if name == "" {
		name = fmt.Sprintf("AS%d", asn)
	}
	as := &AS{ASN: asn, Name: name, Tier: 3, MaxOwnASOccurs: 1}
	b.ases[asn] = as
	b.asOrder = append(b.asOrder, asn)
	return as
}

// AddRouter creates a router inside asn and returns its ID. The router is
// responsive by default.
func (b *Builder) AddRouter(asn ASN, name string) RouterID {
	as, ok := b.ases[asn]
	if !ok {
		panic(fmt.Sprintf("topo: AddRouter for unknown AS %d", asn))
	}
	idx := len(as.Routers)
	id := RouterID(len(b.routers))
	if name == "" {
		name = fmt.Sprintf("%s/r%d", as.Name, idx)
	}
	b.routers = append(b.routers, Router{
		ID:         id,
		AS:         asn,
		Name:       name,
		Addr:       RouterAddr(asn, idx),
		Responsive: true,
	})
	as.Routers = append(as.Routers, id)
	return id
}

// ConnectRouters links two routers. Intra-AS links shape traceroute paths;
// inter-AS links realize an AS adjacency and require Relate to have
// established (or to later establish) a relationship.
func (b *Builder) ConnectRouters(x, y RouterID) {
	if int(x) >= len(b.routers) || int(y) >= len(b.routers) {
		panic("topo: ConnectRouters with unknown router")
	}
	if x == y {
		panic("topo: self-link")
	}
	b.links = append(b.links, [2]RouterID{x, y})
}

// Related reports whether a relationship between a and c has been declared.
func (b *Builder) Related(a, c ASN) bool { return b.rels[MakeASPair(a, c)] != RelNone }

// Provider records that provider sells transit to customer.
func (b *Builder) Provider(customer, provider ASN) { b.relate(customer, provider, RelProvider) }

// Peer records a settlement-free peering between a and b.
func (b *Builder) Peer(a, c ASN) { b.relate(a, c, RelPeer) }

func (b *Builder) relate(a, c ASN, rel Rel) {
	if a == c {
		panic("topo: AS related to itself")
	}
	for _, asn := range []ASN{a, c} {
		if _, ok := b.ases[asn]; !ok {
			panic(fmt.Sprintf("topo: relate unknown AS %d", asn))
		}
	}
	p := MakeASPair(a, c)
	if p.Lo != a {
		rel = rel.Invert()
	}
	if old := b.rels[p]; old != RelNone && old != rel {
		panic(fmt.Sprintf("topo: conflicting relationship %d-%d: %v vs %v", p.Lo, p.Hi, old, rel))
	}
	b.rels[p] = rel
}

// ConnectAS is a convenience that creates one border router on each side
// (reusing the AS's first router as a hub if present) and links them,
// returning the new link's endpoints as (router in a, router in c).
func (b *Builder) ConnectAS(a, c ASN) (RouterID, RouterID) {
	ra := b.AddRouter(a, fmt.Sprintf("%s/bdr-%d", b.ases[a].Name, c))
	rc := b.AddRouter(c, fmt.Sprintf("%s/bdr-%d", b.ases[c].Name, a))
	b.ConnectRouters(ra, rc)
	// Attach each border router to its AS's first (hub) router so that
	// intra-AS paths exist.
	if hub := b.ases[a].Routers[0]; hub != ra {
		b.ConnectRouters(hub, ra)
	}
	if hub := b.ases[c].Routers[0]; hub != rc {
		b.ConnectRouters(hub, rc)
	}
	return ra, rc
}

// Build validates and freezes the topology.
func (b *Builder) Build() (*Topology, error) {
	n := len(b.asOrder)
	t := &Topology{
		high:      map[ASN]int32{},
		asList:    slices.Clone(b.asOrder),
		ases:      make([]*AS, n+1),
		routers:   b.routers,
		routerAdj: make([][]RouterID, len(b.routers)),
		off:       make([]int32, n+2),
		roles:     make([][3][]ASN, n+1),
	}
	slices.Sort(t.asList)
	for i, asn := range t.asList {
		if t.ases[i+1] = b.ases[asn]; asn > MaxASN {
			t.high[asn] = int32(i + 1)
		} else {
			t.low = append(t.low, make([]int32, int(asn)+1-len(t.low))...)
			t.low[asn] = int32(i + 1)
		}
	}
	// Each relationship is an edge in both rows. Sorted by (AS, relationship,
	// neighbor) the edges are the role lists in turn; by (AS, neighbor), the
	// rows.
	type edge struct {
		from, to ASN
		rel      Rel
	}
	edges := make([]edge, 0, 2*len(b.rels))
	for p, rel := range b.rels {
		edges = append(edges, edge{p.Lo, p.Hi, rel}, edge{p.Hi, p.Lo, rel.Invert()})
	}
	slices.SortFunc(edges, func(x, y edge) int {
		return cmp.Or(cmp.Compare(x.from, y.from), cmp.Compare(x.rel, y.rel), cmp.Compare(x.to, y.to))
	})
	roles := make([]ASN, len(edges))
	for k, e := range edges {
		s := t.slot(e.from)
		t.off[s+1]++
		roles[k] = e.to
		r := &t.roles[s][e.rel-1] // grows by one edge, clipped
		*r = roles[k-len(*r) : k+1 : k+1]
	}
	slices.SortFunc(edges, func(x, y edge) int { return cmp.Or(cmp.Compare(x.from, y.from), cmp.Compare(x.to, y.to)) })
	t.nbrs, t.rels, t.borders = make([]ASN, len(edges)), make([]Rel, len(edges)+1), make([][][2]RouterID, len(edges)+1)
	for k, e := range edges {
		t.nbrs[k], t.rels[k] = e.to, e.rel
	}
	for s := range n + 1 {
		t.off[s+1] += t.off[s]
	}
	if err := t.checkProviderHierarchy(); err != nil {
		return nil, err
	}
	for _, l := range b.links {
		x, y := l[0], l[1]
		t.routerAdj[x] = append(t.routerAdj[x], y)
		t.routerAdj[y] = append(t.routerAdj[y], x)
		if ax, ay := t.routers[x].AS, t.routers[y].AS; ax != ay {
			xy, yx := t.edge(ax, ay), t.edge(ay, ax)
			if t.rels[xy] == RelNone {
				return nil, fmt.Errorf("topo: inter-AS link %d-%d without relationship %d-%d", x, y, ax, ay)
			}
			t.borders[xy] = append(t.borders[xy], l)
			t.borders[yx] = append(t.borders[yx], [2]RouterID{y, x})
		}
	}
	for s, asn := range t.asList {
		// Every AS relationship must be realized by at least one border
		// link if both ASes have routers; ASes may also be modelled at pure
		// AS level (no routers), which is fine for control-plane-only
		// studies. An AS with routers must have an internally connected
		// router graph, otherwise the data plane cannot cross it.
		for k := t.off[s+1]; k < t.off[s+2]; k++ {
			if len(t.borders[k]) == 0 && len(t.ases[s+1].Routers) > 0 && len(t.AS(t.nbrs[k]).Routers) > 0 {
				return nil, fmt.Errorf("topo: relationship %d-%d has no border link", asn, t.nbrs[k])
			}
		}
		if err := t.checkIntraConnected(asn); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// checkProviderHierarchy rejects a customer→provider cycle, on which routing
// need not have one stable state (internal/bgp/refsolve), and keeps the
// order it finds as t.hierarchy. Kahn's algorithm peels ASes whose providers
// are all peeled; one left over is on a cycle or below one.
func (t *Topology) checkProviderHierarchy() error {
	left := make([]int, len(t.asList)+1) // by slot: providers not yet peeled
	peeled := make([]ASN, 0, len(t.asList))
	for s, asn := range t.asList {
		if left[s+1] = len(t.Providers(asn)); left[s+1] == 0 {
			peeled = append(peeled, asn)
		}
	}
	for i := 0; i < len(peeled); i++ {
		for _, c := range t.Customers(peeled[i]) {
			s := t.slot(c)
			if left[s]--; left[s] == 0 {
				peeled = append(peeled, c)
			}
		}
	}
	for s, asn := range t.asList {
		if left[s+1] > 0 {
			return fmt.Errorf("topo: customer→provider cycle at or above AS %d", asn)
		}
	}
	t.hierarchy = peeled
	return nil
}

func (t *Topology) checkIntraConnected(asn ASN) error {
	rs := t.AS(asn).Routers
	if len(rs) <= 1 {
		return nil
	}
	seen := map[RouterID]bool{rs[0]: true}
	queue := []RouterID{rs[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range t.routerAdj[cur] {
			if t.routers[n].AS == asn && !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	if len(seen) != len(rs) {
		return fmt.Errorf("topo: AS %d router graph is disconnected (%d/%d reachable)",
			asn, len(seen), len(rs))
	}
	return nil
}
