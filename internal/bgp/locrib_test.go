package bgp

import (
	"math/rand"
	"net/netip"
	"testing"

	"lifeguard/internal/bgp/refsolve"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// The loc-RIB stores slots, not Routes (rib.go); this file holds the stored
// form to what it stands for. An op stream drives announcements of every
// shape, withdrawals, session failures and partial convergence against a
// seeded topogen graph, and after every op each (speaker, prefix) is checked
// against an oracle that knows nothing of slots, handles, slabs or memos: a
// scan of the public AdjIn by refsolve's decision order (Winner), the test's
// own record of who originates what, and — at quiescence — what each
// neighbor must have sent (refsolve.Offer).

type ribKey struct {
	asn topo.ASN
	pfx netip.Prefix
}

// fwdState is what the data plane reads of a selected route.
type fwdState struct {
	exists, originated bool
	nextHop            topo.ASN
}

// ribWorld is the engine under test plus the oracle's own bookkeeping.
type ribWorld struct {
	gen  *topogen.Result
	clk  *simclock.Scheduler
	eng  *Engine
	asns []topo.ASN
	// owners[i] is the stub whose production prefix pfxs[i] is, and addrs[i]
	// an address inside it: the prefixes are disjoint, so Lookup(addrs[i])
	// can only resolve pfxs[i].
	owners []topo.ASN
	pfxs   []netip.Prefix
	addrs  []netip.Addr
	// origins is the test's record of installed origin configs.
	origins map[ribKey]OriginConfig
	down    map[topo.ASPair]bool

	// held is, per (speaker, prefix), the pointer the last check read and a
	// deep copy of what it pointed at then; fwd what the data plane saw of
	// it. ribVer, fwdVer and dstVer are the engine's counters at that check.
	held   map[ribKey]heldRoute
	fwd    map[ribKey]fwdState
	ribVer uint64
	fwdVer []uint64
	dstVer []uint64

	// What the stream got to check, by kind (TestLocRIBMatchesOracle wants
	// some of each): checks at quiescence and mid-propagation, routes that
	// changed under a held pointer, routes lost, and slots that went from
	// learned to originated or back.
	quietChecks, busyChecks, changes, losses, originFlips int
}

type heldRoute struct {
	ptr  *Route
	copy Route
}

func newRIBWorld(t testing.TB, cfg topogen.Config) *ribWorld {
	t.Helper()
	gen, err := topogen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	w := &ribWorld{
		gen: gen, clk: clk, eng: New(gen.Top, clk, Config{Seed: cfg.Seed}),
		asns:    gen.Top.ASNs(),
		origins: make(map[ribKey]OriginConfig),
		down:    make(map[topo.ASPair]bool),
		held:    make(map[ribKey]heldRoute),
		fwd:     make(map[ribKey]fwdState),
	}
	for _, o := range gen.Stubs[:4] {
		w.owners = append(w.owners, o)
		w.pfxs = append(w.pfxs, topo.ProductionPrefix(o))
		w.addrs = append(w.addrs, topo.ProductionAddr(o))
	}
	w.fwdVer = make([]uint64, len(w.asns))
	w.dstVer = make([]uint64, len(w.addrs))
	return w
}

func (w *ribWorld) announce(asn topo.ASN, p netip.Prefix, cfg OriginConfig) {
	w.eng.Announce(asn, p, cfg)
	w.origins[ribKey{asn, p}] = cfg
}

func (w *ribWorld) withdraw(asn topo.ASN, p netip.Prefix) {
	w.eng.Withdraw(asn, p)
	delete(w.origins, ribKey{asn, p})
}

// run interprets data as a stream of operations, checking the whole world
// after each. An op consumes one opcode byte and the operand bytes it needs;
// a stream that runs dry reads zeros.
func (w *ribWorld) run(t testing.TB, data []byte) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	pick := func(n int) int { return next() % n }
	top, gen := w.gen.Top, w.gen
	for len(data) > 0 {
		i := pick(len(w.pfxs))
		o, p := w.owners[i], w.pfxs[i]
		transit := gen.Transit[pick(len(gen.Transit))]
		switch op := next() % 14; {
		case op == 0:
			w.announce(o, p, OriginConfig{})
		case op == 1:
			w.announce(o, p, OriginConfig{Pattern: topo.Path{o, o, o}})
		case op == 2:
			w.announce(o, p, OriginConfig{Pattern: topo.Path{o, transit, o}})
		case op == 3:
			// Poison toward one provider only, or withhold from it.
			provs := top.Providers(o)
			cfg := OriginConfig{Pattern: topo.Path{o, o, o}}
			if n := provs[pick(len(provs))]; pick(3) == 0 {
				cfg.Withhold = map[topo.ASN]bool{n: true}
			} else {
				cfg.PerNeighbor = map[topo.ASN]topo.Path{n: {o, transit, o}}
			}
			w.announce(o, p, cfg)
		case op == 4:
			// §2.3's prepending baseline, as -exp baselines announces it:
			// the route via one provider is made longer, not withheld.
			provs := top.Providers(o)
			w.announce(o, p, OriginConfig{
				Pattern:     topo.Path{o, o, o},
				PerNeighbor: map[topo.ASN]topo.Path{provs[pick(len(provs))]: {o, o, o, o, o, o, o}},
			})
		case op == 5:
			w.withdraw(o, p)
		case op == 6:
			// A session fails or returns.
			nb := top.Neighbors(transit)
			pair := topo.MakeASPair(transit, nb[pick(len(nb))])
			w.down[pair] = !w.down[pair]
			w.eng.SetAdjacencyDown(pair.Lo, pair.Hi, w.down[pair])
		case op == 7:
			// A second origin: an AS that held a learned route for p starts
			// originating it, or stops.
			who := w.asns[pick(len(w.asns))]
			if _, has := w.origins[ribKey{who, p}]; has && who != o {
				w.withdraw(who, p)
			} else if who != o {
				w.announce(who, p, OriginConfig{})
			}
		case op < 12:
			// A few events: the checks then land mid-propagation.
			w.eng.Converge(1 + pick(40))
		default:
			if !w.eng.Converge(50_000_000) {
				t.Fatal("no convergence")
			}
		}
		w.check(t)
	}
}

// ref is r as refsolve writes it, without the prefix; nil for no route.
func ref(r *Route) *refsolve.Route {
	if r == nil {
		return nil
	}
	return &refsolve.Route{Path: r.Path, From: r.From, Rel: r.Rel, LocalPref: r.LocalPref, Originated: r.Originated}
}

// sameFields compares two routes field by field.
func sameFields(a, b *Route) bool {
	return a.Prefix == b.Prefix && ref(a).Equal(ref(b))
}

func snapshot(r *Route) Route {
	c := *r
	c.Path = r.Path.Clone()
	return c
}

// check holds every (speaker, prefix) to the oracle.
func (w *ribWorld) check(t testing.TB) {
	t.Helper()
	e := w.eng
	quiet := e.Quiescent()
	changed := e.RIBVersion() != w.ribVer
	w.ribVer = e.RIBVersion()
	if quiet {
		w.quietChecks++
	} else {
		w.busyChecks++
	}
	selected, offers := 0, 0
	moved := make([]bool, len(w.asns)) // forwarding changed at the i-th AS
	for pi, p := range w.pfxs {
		dstMoved := false
		for si, asn := range w.asns {
			k := ribKey{asn, p}
			s := e.Speaker(asn)
			adjIn := s.AdjIn(p)
			offers += len(adjIn)

			// The selected route is the origin's where one is installed,
			// else the decision order's pick of the offers.
			var want *refsolve.Route
			if _, ok := w.origins[k]; ok {
				want = refsolve.Originated(asn)
			} else {
				var offers []*refsolve.Route
				for _, nb := range w.gen.Top.Neighbors(asn) {
					offers = append(offers, ref(adjIn[nb]))
				}
				want = refsolve.Winner(offers)
			}
			got, ok := s.Best(p)
			if ok != (want != nil) || ok != (got != nil) {
				t.Fatalf("AS%d %v: Best reports %v (%v), oracle selects %v", asn, p, ok, got, want)
			}
			if ok && (got.Prefix != p || !ref(got).Equal(want)) {
				t.Fatalf("AS%d %v: Best is\n%+v, oracle selects\n%v", asn, p, *got, want)
			}

			// One route, one pointer, by every way of asking.
			viaEngine, ok2 := e.BestRoute(asn, p)
			viaLPM, ok3 := e.Lookup(asn, w.addrs[pi])
			if again, _ := s.Best(p); again != got || viaEngine != got || viaLPM != got || ok2 != ok || ok3 != ok {
				t.Fatalf("AS%d %v: Best %p, Best again %p, BestRoute %p (%v), Lookup %p (%v)", asn, p, got, again, viaEngine, ok2, viaLPM, ok3)
			}

			// A pointer read earlier still says what it said then; it is
			// still the answer if nothing changed anywhere, and no longer
			// the answer if this route did.
			if h, was := w.held[k]; was {
				if !sameFields(h.ptr, &h.copy) {
					t.Fatalf("AS%d %v: a Route held across a change now reads\n%+v, was\n%+v", asn, p, *h.ptr, h.copy)
				}
				if !changed && got != h.ptr {
					t.Fatalf("AS%d %v: RIBVersion did not move, yet Best went from %p to %p", asn, p, h.ptr, got)
				}
				switch {
				case got == nil:
					w.losses++
				case got == h.ptr && !want.Equal(ref(&h.copy)):
					t.Fatalf("AS%d %v: route changed to\n%v but Best still returns the pointer that read\n%+v", asn, p, want, h.copy)
				case got != h.ptr:
					w.changes++
					if got.Originated != h.copy.Originated {
						w.originFlips++
					}
				}
			} else if !changed && got != nil {
				t.Fatalf("AS%d %v: RIBVersion did not move, yet a route appeared", asn, p)
			}
			delete(w.held, k)
			f := fwdState{}
			if got != nil {
				selected++
				w.held[k] = heldRoute{ptr: got, copy: snapshot(got)}
				f.exists, f.originated = true, got.Originated
				f.nextHop, _ = got.NextHop()
			}
			if f != w.fwd[k] {
				moved[si], dstMoved = true, true
			}
			w.fwd[k] = f

			if quiet {
				w.checkOffers(t, asn, p, adjIn)
			}
		}
		// Whatever changed how an AS forwards the prefix moved the versions
		// the walk cache trusts.
		if v := e.DstVersion(w.addrs[pi]); dstMoved && v == w.dstVer[pi] {
			t.Fatalf("%v: forwarding changed somewhere and DstVersion stayed at %d", p, v)
		} else {
			w.dstVer[pi] = v
		}
	}
	for si, asn := range w.asns {
		if v := e.FwdVersion(si); moved[si] && v == w.fwdVer[si] {
			t.Fatalf("AS%d: forwarding changed and FwdVersion stayed at %d", asn, v)
		} else {
			w.fwdVer[si] = v
		}
	}
	if loc, adj := e.RIBSizes(); loc != selected || adj != offers {
		t.Fatalf("RIBSizes reports %d selected, %d offers; the public API shows %d, %d", loc, adj, selected, offers)
	}
}

// checkOffers holds, at quiescence, asn's adj-RIB-in for p to what its
// neighbors' selected routes imply: from each neighbor exactly the offer
// refsolve.Offer says that neighbor's export policy sends and asn's import
// policy keeps, and nothing from anyone else.
func (w *ribWorld) checkOffers(t testing.TB, asn topo.ASN, p netip.Prefix, adjIn map[topo.ASN]*Route) {
	t.Helper()
	nbrs := w.gen.Top.Neighbors(asn)
	for _, from := range nbrs {
		var o *refsolve.Origin
		if cfg, ok := w.origins[ribKey{from, p}]; ok {
			o = (*refsolve.Origin)(&cfg)
		}
		b, _ := w.eng.BestRoute(from, p)
		want, got := refsolve.Offer(w.gen.Top, w.down, from, asn, o, ref(b)), adjIn[from]
		switch {
		case want == nil && got != nil:
			t.Fatalf("AS%d %v: holds %+v, which AS%d does not send or AS%d does not accept", asn, p, *got, from, asn)
		case want != nil && got == nil:
			t.Fatalf("AS%d %v: holds nothing from AS%d, which sends\n%v", asn, p, from, want)
		case want != nil && (got.Prefix != p || !ref(got).Equal(want)):
			t.Fatalf("AS%d %v: offer from AS%d is\n%+v, its sender's route implies\n%v", asn, p, from, *got, want)
		}
	}
	if len(adjIn) > len(nbrs) {
		t.Fatalf("AS%d %v: %d offers from %d neighbors", asn, p, len(adjIn), len(nbrs))
	}
}

// TestLocRIBMatchesOracle runs seeded op streams on three graphs. The
// mutations this must fail under, and did (CHANGES.md): decide not clearing
// the remembered *Route; decide carrying exp over to the new winner;
// adjSlab.carve without the capacity bound, so two prefixes share storage;
// sameForwarding calling an originated and a learned slot alike; sameRoute
// ignoring the path; hasNews skipping exportIs; entryBetter without the path
// length; advRecord.differs ignoring a path change.
func TestLocRIBMatchesOracle(t *testing.T) {
	for _, seed := range []int64{5, 23, 71} {
		w := newRIBWorld(t, topogen.Config{Seed: seed, NumTier1: 3, NumTransit: 8, NumStub: 14, TransitPeerProb: 0.2})
		data := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(data)
		w.run(t, data)
		if !w.eng.Converge(50_000_000) {
			t.Fatal("no convergence")
		}
		w.check(t)
		for name, n := range map[string]int{
			"checks at quiescence": w.quietChecks, "checks mid-propagation": w.busyChecks,
			"changed routes": w.changes, "lost routes": w.losses, "learned/originated flips": w.originFlips,
		} {
			if n == 0 {
				t.Errorf("seed %d: stream produced no %s", seed, name)
			}
		}
		t.Logf("seed %d: %d quiet checks, %d busy, %d changes, %d losses, %d origin flips",
			seed, w.quietChecks, w.busyChecks, w.changes, w.losses, w.originFlips)
	}
}
