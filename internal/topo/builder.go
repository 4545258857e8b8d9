package topo

import (
	"fmt"
	"sort"
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
	links   []Link
	rels    map[ASN]map[ASN]Rel
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		ases: make(map[ASN]*AS),
		rels: make(map[ASN]map[ASN]Rel),
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
	b.links = append(b.links, Link{A: x, B: y})
}

// Related reports whether a relationship between a and c has been declared.
func (b *Builder) Related(a, c ASN) bool { return b.rels[a][c] != RelNone }

// Relate records that provider sells transit to customer.
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
	if b.rels[a] == nil {
		b.rels[a] = make(map[ASN]Rel)
	}
	if b.rels[c] == nil {
		b.rels[c] = make(map[ASN]Rel)
	}
	if old := b.rels[a][c]; old != RelNone && old != rel {
		panic(fmt.Sprintf("topo: conflicting relationship %d-%d: %v vs %v", a, c, old, rel))
	}
	b.rels[a][c] = rel
	b.rels[c][a] = rel.Invert()
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
	t := &Topology{
		ases:          b.ases,
		asList:        append([]ASN(nil), b.asOrder...),
		routers:       b.routers,
		links:         b.links,
		rels:          b.rels,
		routerAdj:     make(map[RouterID][]RouterID),
		asBorder:      make(map[ASPair][]Link),
		borderRouters: make(map[[2]ASN][][2]RouterID),
	}
	sortASNs(t.asList)
	t.indexByRel()
	if err := t.checkProviderHierarchy(); err != nil {
		return nil, err
	}
	for _, l := range t.links {
		ra, rb := &t.routers[l.A], &t.routers[l.B]
		t.routerAdj[l.A] = append(t.routerAdj[l.A], l.B)
		t.routerAdj[l.B] = append(t.routerAdj[l.B], l.A)
		if ra.AS != rb.AS {
			pair := MakeASPair(ra.AS, rb.AS)
			t.asBorder[pair] = append(t.asBorder[pair], l)
			ab, ba := [2]ASN{ra.AS, rb.AS}, [2]ASN{rb.AS, ra.AS}
			t.borderRouters[ab] = append(t.borderRouters[ab], [2]RouterID{l.A, l.B})
			t.borderRouters[ba] = append(t.borderRouters[ba], [2]RouterID{l.B, l.A})
			if t.rels[ra.AS][rb.AS] == RelNone {
				return nil, fmt.Errorf("topo: inter-AS link %d-%d without relationship %d-%d",
					l.A, l.B, ra.AS, rb.AS)
			}
		}
	}
	// Every AS relationship must be realized by at least one border link
	// if both ASes have routers; ASes may also be modelled at pure AS
	// level (no routers), which is fine for control-plane-only studies.
	for a, m := range t.rels {
		for c := range m {
			if len(t.ases[a].Routers) > 0 && len(t.ases[c].Routers) > 0 {
				if len(t.asBorder[MakeASPair(a, c)]) == 0 {
					return nil, fmt.Errorf("topo: relationship %d-%d has no border link", a, c)
				}
			}
		}
	}
	// Each AS with routers must have an internally connected router graph,
	// otherwise the data plane cannot cross it.
	for _, asn := range t.asList {
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
	left := make(map[ASN]int, len(t.asList)) // providers not yet peeled
	peeled := make([]ASN, 0, len(t.asList))
	for _, asn := range t.asList {
		if left[asn] = len(t.Providers(asn)); left[asn] == 0 {
			peeled = append(peeled, asn)
		}
	}
	for i := 0; i < len(peeled); i++ {
		for _, c := range t.Customers(peeled[i]) {
			if left[c]--; left[c] == 0 {
				peeled = append(peeled, c)
			}
		}
	}
	for _, asn := range t.asList {
		if left[asn] > 0 {
			return fmt.Errorf("topo: customer→provider cycle at or above AS %d", asn)
		}
	}
	t.hierarchy = peeled
	return nil
}

func (t *Topology) checkIntraConnected(asn ASN) error {
	rs := t.ases[asn].Routers
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

func sortASNs(s []ASN) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
