package bgp_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/bgp/refsolve"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/nettest"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// The control plane's one test harness. An op stream (announcements of
// every shape, withdrawals, sessions failing and returning, second origins,
// partial and full convergence) drives one engine and its data plane. After
// every op each (AS, prefix) is held to an oracle that knows nothing of
// slots, handles, slabs or memos: refsolve's decision order over the public
// AdjIn, the test's own record of who originates what, one pointer per route
// by every way of asking, and the version counters the walk cache trusts. At
// every quiescent point it also holds each adj-RIB-in to what the neighbors'
// routes imply (refsolve.Offer), every route to the one stable state
// (refsolve.Solve), and the AS path a packet from each AS takes through the
// walk cache to that state's path.
//
// An op is four bytes: an opcode and three operands, each an index into a
// pool; a stream that runs dry reads zeros. Every pool is ordered so that
// operand 0 names the role the chains below give it, so a chain is the same
// bytes on every world.
const (
	opPlain     byte = iota // announce the plain path
	opPrepended             // the O-O-O baseline
	opPoison                // O-A-O
	opWithhold              // O-O-O, withheld from one neighbor
	opSelective             // O-O-O, and O-A-O to one neighbor only
	opPrepend               // O-O-O, and seven O's to one neighbor: §2.3's prepending baseline
	opWithdraw
	opLink                  // a session fails or returns
	opSecond                // a second origin starts or stops
	opSome                  // a few events, so the checks land mid-propagation; so do the next three opcodes
	opConverge = opSome + 4 // to quiescence; so does the next opcode
	numOps     = opConverge + 2
)

// chain is the op string that announces every prefix, converges, then takes
// each step on prefix 0 with every operand 0 and converges after it.
func chain(steps ...byte) []byte {
	return then([]byte{opPlain, 1, 0, 0, opPlain, 2, 0, 0, opPlain, 0, 0, 0, opConverge, 0, 0, 0}, steps)
}

// lateChain is chain with prefix 0 first announced only after the other two
// have converged, so every speaker's id-indexed tables grow past prefixes it
// has already advertised.
func lateChain(steps ...byte) []byte {
	return then([]byte{opPlain, 1, 0, 0, opPlain, 2, 0, 0, opConverge, 0, 0, 0, opPlain, 0, 0, 0, opConverge, 0, 0, 0}, steps)
}

// then appends each step on prefix 0, with every operand 0, and a converge
// after it.
func then(ops, steps []byte) []byte {
	for _, s := range steps {
		ops = append(ops, s, 0, 0, 0, opConverge, 0, 0, 0)
	}
	return ops
}

// The named chains the exact-check tests run, and FuzzConverge's seeds.
var chains = []struct {
	name string
	ops  []byte
}{
	{"TestEngineMatchesSolve", chain(opPrepended, opPrepend, opPoison, opWithhold, opSelective, opLink, opLink, opSecond, opSecond, opWithdraw)},
	{"TestInvariantValleyFreeAndLoopFree", chain(opPoison, opLink, opLink)},
	{"TestInvariantGaoRexfordPreference", chain(opSecond, opSecond)},
	{"TestInvariantWithdrawLeavesNoState", chain(opPoison, opWithdraw)},
	{"TestInvariantPoisonUnpoisonRoundTrip", chain(opPrepended, opPoison, opPrepended, opSelective, opWithhold, opPlain)},
	{"TestInvariantForwardingMatchesControlPlane", chain(opLink, opPoison, opLink, opPrepended)},
	{"TestInvariantLatePrefixSurvivesSessionFlap", lateChain(opLink, opLink)},
	{"plain", chain()},
}

// reading is what a check read of one (AS, prefix): the pointer, a deep
// copy of what it pointed at then, and what the data plane reads of it:
// where a packet goes next, the AS itself for an originated route (deliver
// here), 0 for none.
type reading struct {
	ptr  *bgp.Route
	copy bgp.Route
	fwd  topo.ASN
}

// world is an engine and data plane over one topology, the test's record of
// what the engine was told, and the operand pools.
type world struct {
	name  string
	top   *topo.Topology
	eng   *bgp.Engine
	plane *dataplane.Plane
	asns  []topo.ASN
	// budget is the events a converge op may take before the world counts
	// as never settling: 10 per session end and prefix. The most any op of
	// the seed corpus and the named chains needs is 1.21 (Fig. 2, 34 events
	// over 14 session ends and 2 prefixes), so the margin is 8×; an op that
	// never settles fails in milliseconds, not after bgp.MaxConvergeSteps.
	// A fuzzed stream can pile up more toggles before one converge than any
	// of these, so re-run a fuzz failure with bgp.MaxConvergeSteps here
	// before taking it for a world that never settles.
	budget int
	// owners[i] originates pfxs[i] and addrs[i] is an address inside it: the
	// prefixes are disjoint, so Lookup(addrs[i]) can only resolve pfxs[i].
	owners []topo.ASN
	pfxs   []netip.Prefix
	addrs  []netip.Addr
	// The pools are ordered by plain, prefix 0's stable state when only
	// owners[0] announces it. transits are the ASes with customers (the
	// poisoned AS, or a failing session's end), first the one the most plain
	// routes cross that is not owners[0]'s neighbor; seconds is every AS, the
	// farthest from owners[0] first.
	plain    []*refsolve.Route // by Index
	transits []topo.ASN
	seconds  []topo.ASN

	origins map[netip.Prefix]map[topo.ASN]refsolve.Origin
	down    map[topo.ASPair]bool
	ops     []string // what ran, for a failure to print

	// held[i][j] is what the last check read of pfxs[i] at asns[j]; ribVer,
	// fwdVer and dstVer are the engine's counters then.
	held   [][]reading
	ribVer uint64
	fwdVer []uint64
	dstVer []uint64

	// What the stream got to check: checks at quiescence and mid-propagation,
	// (quiescent point, prefix) solves, routes that changed under a held
	// pointer, routes lost, and routes that went from learned to originated
	// or back.
	quiet, busy, solves, changes, losses, originFlips int
}

func newWorld(t testing.TB, name string, top *topo.Topology, seed int64, owners []topo.ASN) *world {
	t.Helper()
	eng := bgp.New(top, simclock.New(), bgp.Config{Seed: seed})
	w := &world{
		name: name, top: top, eng: eng, plane: dataplane.New(top, eng), asns: top.ASNs(), owners: owners,
		origins: map[netip.Prefix]map[topo.ASN]refsolve.Origin{},
		down:    map[topo.ASPair]bool{},
	}
	for _, o := range owners {
		w.pfxs = append(w.pfxs, topo.ProductionPrefix(o))
		w.addrs = append(w.addrs, topo.ProductionAddr(o))
		w.held = append(w.held, make([]reading, len(w.asns)))
	}
	w.fwdVer = make([]uint64, len(w.asns))
	w.dstVer = make([]uint64, len(w.addrs))

	o := owners[0]
	plain := refsolve.Solve(top, nil, map[topo.ASN]refsolve.Origin{o: {}})
	uses, far, farthest := map[topo.ASN]int{}, o, 0
	for i, asn := range w.asns {
		w.budget += 10 * len(top.Neighbors(asn)) * len(owners)
		if len(top.Customers(asn)) > 0 {
			w.transits = append(w.transits, asn)
		}
		if r := plain[i]; r != nil {
			for _, hop := range r.Path {
				if hop != o && !top.Adjacent(o, hop) {
					uses[hop]++
				}
			}
			if len(r.Path) > farthest {
				far, farthest = asn, len(r.Path)
			}
		}
	}
	slices.SortStableFunc(w.transits, func(a, b topo.ASN) int { return uses[b] - uses[a] })
	if nb := w.aimed(o); len(nb) > 0 && (len(w.transits) == 0 || uses[w.transits[0]] == 0) {
		w.transits = first(w.transits, nb[0]) // every transit is o's neighbor
	}
	w.plain, w.seconds = plain, first(w.asns, far)
	return w
}

// first is s with x moved, or added, to the front.
func first(s []topo.ASN, x topo.ASN) []topo.ASN {
	out := []topo.ASN{x}
	for _, y := range s {
		if y != x {
			out = append(out, y)
		}
	}
	return out
}

// aimed is the pool of o's neighbors a one-neighbor announcement aims at:
// its providers, or if it has none every neighbor.
func (w *world) aimed(o topo.ASN) []topo.ASN {
	if ps := w.top.Providers(o); len(ps) > 0 {
		return ps
	}
	return w.top.Neighbors(o)
}

// links is the pool of asn's sessions that fail: its neighbors, the next
// hop of its plain route first.
func (w *world) links(asn topo.ASN) []topo.ASN {
	if i, _ := w.top.Index(asn); w.plain[i] != nil && !w.plain[i].Originated {
		return first(w.top.Neighbors(asn), w.plain[i].From)
	}
	return w.top.Neighbors(asn)
}

func (w *world) announce(asn topo.ASN, p netip.Prefix, cfg bgp.OriginConfig) {
	w.eng.Announce(asn, p, cfg)
	if w.origins[p] == nil {
		w.origins[p] = map[topo.ASN]refsolve.Origin{}
	}
	w.origins[p][asn] = refsolve.Origin(cfg)
}

func (w *world) withdraw(asn topo.ASN, p netip.Prefix) {
	w.eng.Withdraw(asn, p)
	delete(w.origins[p], asn)
}

// do applies one op and says what it did; "" if an operand's pool is empty.
func (w *world) do(t testing.TB, op [4]byte) string {
	i := int(op[1]) % len(w.pfxs)
	o, p := w.owners[i], w.pfxs[i]
	pick := func(pool []topo.ASN, b byte) topo.ASN {
		if len(pool) == 0 {
			return 0
		}
		return pool[int(b)%len(pool)]
	}
	nb, a, a2 := pick(w.aimed(o), op[2]), pick(w.transits, op[2]), pick(w.transits, op[3])
	end := pick(w.links(a), op[3])
	ooo := topo.Path{o, o, o}
	switch code := op[0] % numOps; {
	case code == opPlain:
		w.announce(o, p, bgp.OriginConfig{})
		return fmt.Sprintf("AS%d plain", o)
	case code == opPrepended:
		w.announce(o, p, bgp.OriginConfig{Pattern: ooo})
		return fmt.Sprintf("AS%d O-O-O", o)
	case code == opPoison && a != 0:
		w.announce(o, p, bgp.OriginConfig{Pattern: topo.Path{o, a, o}})
		return fmt.Sprintf("AS%d O-%d-O", o, a)
	case code == opWithhold && nb != 0:
		w.announce(o, p, bgp.OriginConfig{Pattern: ooo, Withhold: map[topo.ASN]bool{nb: true}})
		return fmt.Sprintf("AS%d O-O-O, withheld from AS%d", o, nb)
	case code == opSelective && nb != 0 && a2 != 0:
		w.announce(o, p, bgp.OriginConfig{Pattern: ooo, PerNeighbor: map[topo.ASN]topo.Path{nb: {o, a2, o}}})
		return fmt.Sprintf("AS%d O-O-O, O-%d-O to AS%d only", o, a2, nb)
	case code == opPrepend && nb != 0:
		w.announce(o, p, bgp.OriginConfig{Pattern: ooo, PerNeighbor: map[topo.ASN]topo.Path{nb: {o, o, o, o, o, o, o}}})
		return fmt.Sprintf("AS%d O-O-O, seven O's to AS%d", o, nb)
	case code == opWithdraw:
		w.withdraw(o, p)
		return fmt.Sprintf("AS%d withdraw", o)
	case code == opLink && end != 0:
		pair := topo.MakeASPair(a, end)
		w.down[pair] = !w.down[pair]
		w.eng.SetAdjacencyDown(pair.Lo, pair.Hi, w.down[pair])
		return fmt.Sprintf("link %d-%d down %v", pair.Lo, pair.Hi, w.down[pair])
	case code == opSecond:
		who := pick(w.seconds, op[2])
		if _, has := w.origins[p][who]; has && who != o {
			w.withdraw(who, p)
			return fmt.Sprintf("AS%d stops originating AS%d's prefix", who, o)
		} else if who != o {
			w.announce(who, p, bgp.OriginConfig{})
			return fmt.Sprintf("AS%d originates AS%d's prefix too", who, o)
		}
	case code >= opSome && code < opConverge:
		n := 1 + int(op[2])%40
		w.eng.Converge(n)
		return fmt.Sprintf("%d events", n)
	case code >= opConverge:
		if !w.eng.Converge(w.budget) {
			w.fatalf(t, "converge: not quiescent after %d steps, the world's budget", w.budget)
		}
		return "converge"
	}
	return ""
}

// run takes the ops in data in turn, checking the world after each, and
// ends with a check at quiescence.
func (w *world) run(t testing.TB, data []byte) {
	t.Helper()
	w.drive(t, data, w.check)
}

// drive is run with check in place of the full check.
func (w *world) drive(t testing.TB, data []byte, check func(testing.TB)) {
	t.Helper()
	for len(data) > 0 || !w.eng.Quiescent() {
		var op [4]byte
		if len(data) == 0 {
			op[0] = opConverge
		}
		data = data[copy(op[:], data):]
		if did := w.do(t, op); did != "" {
			w.ops = append(w.ops, did)
			check(t)
		}
	}
}

// checkNextHop holds NextHop, at every AS for one address per prefix, to
// the Route Lookup finds: ok exactly when there is one, local exactly when
// it is Originated, and next its first hop otherwise.
func (w *world) checkNextHop(t testing.TB) {
	t.Helper()
	for _, addr := range w.addrs {
		for _, asn := range w.asns {
			r, ok := w.eng.Lookup(asn, addr)
			next, local, ok2 := w.eng.NextHop(asn, addr)
			want := topo.ASN(0)
			if ok && !r.Originated {
				want = r.Path[0]
			}
			if ok2 != ok || ok && (local != r.Originated || next != want) {
				w.fatalf(t, "AS%d %v: NextHop = %d, local %v, ok %v; Lookup = %v, %v", asn, addr, next, local, ok2, r, ok)
			}
		}
	}
}

// fatalf fails the test naming the world and every op that led here.
func (w *world) fatalf(t testing.TB, format string, args ...any) {
	t.Helper()
	t.Fatalf("%s: %s\nafter %d ops: %s", w.name, fmt.Sprintf(format, args...), len(w.ops), strings.Join(w.ops, "; "))
}

// ref is r as refsolve writes it, without the prefix; nil for no route.
func ref(r *bgp.Route) *refsolve.Route {
	if r == nil {
		return nil
	}
	return &refsolve.Route{Path: r.Path, From: r.From, Rel: r.Rel, LocalPref: r.LocalPref, Originated: r.Originated}
}

// check holds every (AS, prefix) to the oracle, and at quiescence to
// refsolve's exact answer.
func (w *world) check(t testing.TB) {
	t.Helper()
	e := w.eng
	quiet := e.Quiescent()
	changed := e.RIBVersion() != w.ribVer
	w.ribVer = e.RIBVersion()
	if quiet {
		w.quiet++
	} else {
		w.busy++
	}
	selected, offers := 0, 0
	moved := make([]bool, len(w.asns)) // forwarding changed at the i-th AS
	for pi, p := range w.pfxs {
		dstMoved := false
		// At quiescence, every AS's offers and selected route.
		var adjIns []map[topo.ASN]*bgp.Route
		bests := make([]*refsolve.Route, len(w.asns))
		for si, asn := range w.asns {
			s := e.Speaker(asn)
			adjIn := s.AdjIn(p)
			offers += len(adjIn)

			// The selected route is the origin's where one is installed,
			// else the decision order's pick of the offers.
			var want *refsolve.Route
			if _, ok := w.origins[p][asn]; ok {
				want = refsolve.Originated(asn)
			} else {
				var offers []*refsolve.Route
				for _, nb := range w.top.Neighbors(asn) {
					offers = append(offers, ref(adjIn[nb]))
				}
				want = refsolve.Winner(offers)
			}
			got, ok := s.Best(p)
			if ok != (want != nil) || ok != (got != nil) {
				w.fatalf(t, "AS%d %v: Best reports %v (%v), oracle selects %v", asn, p, ok, got, want)
			}
			if ok && (got.Prefix != p || !ref(got).Equal(want)) {
				w.fatalf(t, "AS%d %v: Best is\n%+v, oracle selects\n%v", asn, p, *got, want)
			}

			// One route, one pointer, by every way of asking.
			viaEngine, ok2 := e.BestRoute(asn, p)
			viaLPM, ok3 := e.Lookup(asn, w.addrs[pi])
			if again, _ := s.Best(p); again != got || viaEngine != got || viaLPM != got || ok2 != ok || ok3 != ok {
				w.fatalf(t, "AS%d %v: Best %p, Best again %p, BestRoute %p (%v), Lookup %p (%v)", asn, p, got, again, viaEngine, ok2, viaLPM, ok3)
			}

			// A pointer read earlier still says what it said then; it is
			// still the answer if nothing changed anywhere, and no longer
			// the answer if this route did.
			h := &w.held[pi][si]
			if !changed && got != h.ptr {
				w.fatalf(t, "AS%d %v: RIBVersion did not move, yet Best went from %p to %p", asn, p, h.ptr, got)
			}
			if h.ptr != nil {
				if h.ptr.Prefix != h.copy.Prefix || !ref(h.ptr).Equal(ref(&h.copy)) {
					w.fatalf(t, "AS%d %v: a Route held across a change now reads\n%+v, was\n%+v", asn, p, *h.ptr, h.copy)
				}
				switch {
				case got == nil:
					w.losses++
				case got == h.ptr && !want.Equal(ref(&h.copy)):
					w.fatalf(t, "AS%d %v: route changed to\n%v but Best still returns the pointer that read\n%+v", asn, p, want, h.copy)
				case got != h.ptr:
					w.changes++
					if got.Originated != h.copy.Originated {
						w.originFlips++
					}
				}
			}
			f := topo.ASN(0)
			if got != nil {
				selected++
				if h.ptr != got {
					h.copy = *got
					h.copy.Path = got.Path.Clone()
				}
				f = asn
				if hop, ok := got.NextHop(); ok {
					f = hop
				}
			}
			if f != h.fwd {
				moved[si], dstMoved = true, true
			}
			h.ptr, h.fwd = got, f

			if quiet {
				adjIns = append(adjIns, adjIn)
				bests[si] = ref(got)
			}
		}
		if quiet {
			w.exact(t, pi, bests)
			for si, asn := range w.asns {
				w.checkOffers(t, asn, p, adjIns[si], bests)
			}
		}
		// Whatever changed how an AS forwards the prefix moved the versions
		// the walk cache trusts.
		if v := e.DstVersion(w.addrs[pi]); dstMoved && v == w.dstVer[pi] {
			w.fatalf(t, "%v: forwarding changed somewhere and DstVersion stayed at %d", p, v)
		} else {
			w.dstVer[pi] = v
		}
	}
	for si, asn := range w.asns {
		if v := e.FwdVersion(si); moved[si] && v == w.fwdVer[si] {
			w.fatalf(t, "AS%d: forwarding changed and FwdVersion stayed at %d", asn, v)
		} else {
			w.fwdVer[si] = v
		}
	}
	if loc, adj := e.RIBSizes(); loc != selected || adj != offers {
		w.fatalf(t, "RIBSizes reports %d selected, %d offers; the public API shows %d, %d", loc, adj, selected, offers)
	}
}

// checkOffers holds, at quiescence, asn's adj-RIB-in for p to what its
// neighbors' selected routes, bests, imply: from each neighbor exactly the
// offer refsolve.Offer says that neighbor's export policy sends and asn's
// import policy keeps, and nothing from anyone else.
func (w *world) checkOffers(t testing.TB, asn topo.ASN, p netip.Prefix, adjIn map[topo.ASN]*bgp.Route, bests []*refsolve.Route) {
	t.Helper()
	sent := 0
	for _, from := range w.top.Neighbors(asn) {
		i, _ := w.top.Index(from)
		want, got := refsolve.Offer(w.top, w.down, w.origins[p], from, asn, bests[i], nil), adjIn[from]
		switch sends := want.LocalPref > 0; {
		case !sends && got != nil:
			w.fatalf(t, "AS%d %v: holds %+v, which AS%d does not send or AS%d does not accept", asn, p, *got, from, asn)
		case sends && got == nil:
			w.fatalf(t, "AS%d %v: holds nothing from AS%d, which sends\n%v", asn, p, from, want)
		case sends && (got.Prefix != p || !ref(got).Equal(&want)):
			w.fatalf(t, "AS%d %v: offer from AS%d is\n%+v, its sender's route implies\n%v", asn, p, from, *got, want)
		case sends:
			sent++
		}
	}
	if len(adjIn) != sent {
		w.fatalf(t, "AS%d %v: %d offers, %d of them from neighbors that send one", asn, p, len(adjIn), sent)
	}
}

// show renders r for a diff line.
func show(r *refsolve.Route) string {
	switch {
	case r == nil:
		return "no route"
	case r.Originated:
		return "originated"
	}
	return fmt.Sprintf("%v via AS%d (%v, pref %d)", r.Path, r.From, r.Rel, r.LocalPref)
}

// walk is the AS path a packet from asn follows under the routes in sol:
// asn, then the route's path up to the first AS that originates the prefix.
func walk(top *topo.Topology, sol []*refsolve.Route, asn topo.ASN) topo.Path {
	out := topo.Path{asn}
	if i, _ := top.Index(asn); sol[i] != nil {
		for _, hop := range sol[i].Path {
			out = append(out, hop)
			if j, _ := top.Index(hop); sol[j] != nil && sol[j].Originated {
				break
			}
		}
	}
	return out
}

// exact holds every AS's selected route for pfxs[i], engine, and the AS path
// a packet from its hub takes through the walk cache, to refsolve.Solve.
func (w *world) exact(t testing.TB, i int, engine []*refsolve.Route) {
	t.Helper()
	p := w.pfxs[i]
	sol := refsolve.Solve(w.top, w.down, w.origins[p])
	w.solves++
	var diff []string
	for si, asn := range w.asns {
		if got := engine[si]; !got.Equal(sol[si]) {
			diff = append(diff, fmt.Sprintf("AS%d: engine %s, refsolve %s", asn, show(got), show(sol[si])))
		}
		hub := w.top.AS(asn).Routers[0]
		res := w.plane.Forward(hub, dataplane.Packet{Src: w.top.Router(hub).Addr, Dst: w.addrs[i]})
		if want := walk(w.top, sol, asn); res.Delivered() != (sol[si] != nil) || !res.ASPath().Equal(want) {
			diff = append(diff, fmt.Sprintf("AS%d: data plane %v along %v, refsolve's path %v", asn, res.Reason, res.ASPath(), want))
		}
	}
	if len(diff) > 0 {
		w.fatalf(t, "%v: %d differences\n%s\n%s", p, len(diff), strings.Join(diff, "\n"), w.firstDecision(p, engine))
	}
}

// firstDecision names the first AS whose engine route is not what refsolve
// decides from its neighbors' engine routes. The fixed point is unique, so
// an engine that differs from Solve's answer has such an AS unless only the
// data plane is wrong.
func (w *world) firstDecision(p netip.Prefix, engine []*refsolve.Route) string {
	for si, asn := range w.asns {
		if want := refsolve.Decide(w.top, w.down, w.origins[p], asn, engine); !want.Equal(engine[si]) {
			return fmt.Sprintf("first decision that differs: AS%d holds %s; its neighbors' routes decide %s", asn, show(engine[si]), show(want))
		}
	}
	return "every AS's route is what its neighbors' routes decide: only the data plane differs"
}

// quirks sets the §7.1 import policies Smith et al. measured in the wild on
// the ASes with customers, in turn: every other one drops customer routes
// that cross one of its peers (FilterPeersFromCustomers), and the rest
// accept their own ASN once (MaxOwnASOccurs 2) or any number of times (0).
func quirks(top *topo.Topology) {
	i := 0
	for _, asn := range top.ASNs() {
		if len(top.Customers(asn)) == 0 {
			continue
		}
		switch as := top.AS(asn); i % 4 {
		case 0, 2:
			as.FilterPeersFromCustomers = true
		case 1:
			as.MaxOwnASOccurs = 2
		case 3:
			as.MaxOwnASOccurs = 0
		}
		i++
	}
}

func generate(t testing.TB, cfg topogen.Config) *topogen.Result {
	t.Helper()
	gen, err := topogen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// randTopoB builds a random provider-tree-plus-peering internetwork, one
// router per AS and one border link per relationship.
func randTopoB(t *testing.T, rng *rand.Rand, n int) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	for i := 1; i <= n; i++ {
		b.AddAS(topo.ASN(i), "")
		b.AddRouter(topo.ASN(i), "")
	}
	for i := 2; i <= n; i++ {
		p := topo.ASN(1 + rng.Intn(i-1))
		b.Provider(topo.ASN(i), p)
		b.ConnectAS(topo.ASN(i), p)
	}
	for k := 0; k < n/2; k++ {
		a := topo.ASN(1 + rng.Intn(n))
		c := topo.ASN(1 + rng.Intn(n))
		if a != c && !b.Related(a, c) {
			b.Peer(a, c)
			b.ConnectAS(a, c)
		}
	}
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// multihomed returns up to k stubs, those with two providers or more first.
func multihomed(top *topo.Topology, stubs []topo.ASN, k int) []topo.ASN {
	var multi, single []topo.ASN
	for _, s := range stubs {
		if len(top.Providers(s)) > 1 {
			multi = append(multi, s)
		} else {
			single = append(single, s)
		}
	}
	return append(multi, single...)[:min(k, len(stubs))]
}

// matchSolve runs ops on fresh engines over solveWorlds.
func matchSolve(t *testing.T, ops []byte) {
	checks, routes := 0, 0
	worlds := solveWorlds(t)
	for _, w := range worlds {
		w.run(t, ops)
		checks += w.quiet
		routes += w.solves * len(w.asns)
	}
	t.Logf("%d worlds, %d checks at quiescence, %d (AS, prefix) routes and forwarded paths identical", len(worlds), checks, routes)
}

// solveWorlds builds fresh engines over the paper's Fig. 2 worlds, random
// provider trees with peering, and topogen worlds of 200 and 1k ASes, some
// with the §7.1 import quirks.
func solveWorlds(t *testing.T) []*world {
	// Fig. 2 poisons A, its busiest transit; the unpoisonable variant
	// poisons F, which keeps what names it.
	unpoisonable := newWorld(t, "Fig. 2, F unpoisonable", nettest.Fig2Unpoisonable(t).Top, 1, []topo.ASN{nettest.O, nettest.C})
	unpoisonable.transits = first(unpoisonable.transits, nettest.F)
	worlds := []*world{newWorld(t, "Fig. 2", nettest.Fig2(t).Top, 1, []topo.ASN{nettest.O, nettest.D}), unpoisonable}

	// Random provider trees with peering: 37 worlds of 10 to 36 ASes, the
	// last 6 with the quirks.
	for _, d := range []struct {
		seed             int64
		trials, min, max int
	}{{99, 10, 12, 36}, {7, 8, 12, 31}, {31, 6, 10, 29}, {41, 6, 12, 31}, {59, 1, 25, 25}, {40, 6, 12, 31}} {
		rng := rand.New(rand.NewSource(d.seed))
		for trial := 0; trial < d.trials; trial++ {
			n := d.min + rng.Intn(d.max-d.min+1)
			top := randTopoB(t, rng, n)
			if d.seed == 40 {
				quirks(top)
			}
			o := topo.ASN(1 + rng.Intn(n))
			worlds = append(worlds, newWorld(t, fmt.Sprintf("random %d/%d", d.seed, trial), top, 1, []topo.ASN{o, topo.ASN(1 + (int(o)+n/2)%n)}))
		}
	}

	for _, g := range []struct {
		name   string
		cfg    topogen.Config
		quirks bool
	}{
		{"topogen 200", topogen.Config{Seed: 3, NumTransit: 45}, false},
		{"topogen 200, quirks", topogen.Config{Seed: 3, NumTransit: 45}, true},
		{"topogen 1k", topogen.Config{Seed: 1, NumTransit: 200, NumStub: 795}, false},
		{"topogen 1k Large", topogen.Config{Seed: 1, NumTransit: 200, NumStub: 795, Large: true}, false},
	} {
		gen := generate(t, g.cfg)
		if g.quirks {
			quirks(gen.Top)
		}
		worlds = append(worlds, newWorld(t, g.name, gen.Top, 1, multihomed(gen.Top, gen.Stubs, 3)))
	}
	return worlds
}

// TestLocRIBMatchesOracle runs seeded op streams on three graphs with the
// quirks. The mutations this must fail under (testdata/mutants/, make
// mutants): decide not clearing the remembered *Route; decide carrying exp
// over to the new winner; row's stride one short of the session count, so
// two prefixes share slots; sameForwarding calling an originated and a
// learned slot alike; sameRoute ignoring the path; hasNews skipping
// exportIs; entryBetter without the path length; advRecord.differs ignoring
// a path change.
func TestLocRIBMatchesOracle(t *testing.T) {
	for _, seed := range []int64{5, 23, 71} {
		gen := generate(t, topogen.Config{Seed: seed, NumTier1: 3, NumTransit: 8, NumStub: 14, TransitPeerProb: 0.2})
		quirks(gen.Top)
		w := newWorld(t, fmt.Sprintf("seed %d", seed), gen.Top, seed, gen.Stubs[:4])
		data := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(data)
		w.run(t, data)
		for name, n := range map[string]int{
			"checks at quiescence": w.quiet, "checks mid-propagation": w.busy,
			"changed routes": w.changes, "lost routes": w.losses, "learned/originated flips": w.originFlips,
		} {
			if n == 0 {
				t.Errorf("seed %d: stream produced no %s", seed, name)
			}
		}
		t.Logf("seed %d: %d quiet checks (%d solves), %d busy, %d changes, %d losses, %d origin flips",
			seed, w.quiet, w.solves, w.busy, w.changes, w.losses, w.originFlips)
	}
}

// TestNextHopMatchesLookup holds the data plane's per-hop primitive to
// Lookup (checkNextHop) after every op: every named chain on solveWorlds,
// then TestLocRIBMatchesOracle's seeded streams, whose checks also land
// mid-propagation. The mutations this must fail under (testdata/mutants/,
// make mutants): a learned route reported as local; no route reported as
// ok; an exact-match lookup in place of the longest-prefix walk.
func TestNextHopMatchesLookup(t *testing.T) {
	for _, c := range chains {
		for _, w := range solveWorlds(t) {
			w.drive(t, c.ops, w.checkNextHop)
		}
	}
	for _, seed := range []int64{5, 23, 71} {
		gen := generate(t, topogen.Config{Seed: seed, NumTier1: 3, NumTransit: 8, NumStub: 14, TransitPeerProb: 0.2})
		quirks(gen.Top)
		w := newWorld(t, fmt.Sprintf("seed %d", seed), gen.Top, seed, gen.Stubs[:4])
		data := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(data)
		w.drive(t, data, w.checkNextHop)
	}
}

// TestEngineMatchesSolve takes every step in turn: prepended, one-neighbor
// prepended, poisoned, withheld and selectively poisoned announcements, a
// link going down and up, a second origin coming and going, and a
// withdrawal.
func TestEngineMatchesSolve(t *testing.T) { matchSolve(t, chains[0].ops) }

// The five tests below each hold one property to refsolve's exact answer, on
// the steps that most stress it.

// TestInvariantValleyFreeAndLoopFree: a poison and a failed link move
// routes onto other valley-free, loop-free paths, and no others.
func TestInvariantValleyFreeAndLoopFree(t *testing.T) { matchSolve(t, chains[1].ops) }

// TestInvariantGaoRexfordPreference: with two origins every AS prefers by
// relationship first, then returns to the one origin's routes.
func TestInvariantGaoRexfordPreference(t *testing.T) { matchSolve(t, chains[2].ops) }

// TestInvariantWithdrawLeavesNoState: withdrawing a poisoned announcement
// leaves no route and no adj-RIB-in entry anywhere.
func TestInvariantWithdrawLeavesNoState(t *testing.T) { matchSolve(t, chains[3].ops) }

// TestInvariantPoisonUnpoisonRoundTrip: poisoning and unpoisoning, whole
// and selective, leave nothing of the poison behind.
func TestInvariantPoisonUnpoisonRoundTrip(t *testing.T) { matchSolve(t, chains[4].ops) }

// TestInvariantForwardingMatchesControlPlane: the walk cache follows
// announcement and link changes interleaved in the other order.
func TestInvariantForwardingMatchesControlPlane(t *testing.T) { matchSolve(t, chains[5].ops) }

// TestInvariantLatePrefixSurvivesSessionFlap: a prefix first announced after
// the others have converged, then a session failing and returning: every
// route, adj-RIB-in and forwarded path still matches refsolve's.
func TestInvariantLatePrefixSurvivesSessionFlap(t *testing.T) { matchSolve(t, chains[6].ops) }

// FuzzConverge hands the same interpreter to the fuzzer, on a world with
// the quirks small enough to rebuild per input.
func FuzzConverge(f *testing.F) {
	for _, c := range chains {
		f.Add(c.ops)
	}
	seeded := make([]byte, 600)
	rand.New(rand.NewSource(40)).Read(seeded)
	f.Add(seeded)
	f.Fuzz(func(t *testing.T, data []byte) {
		gen := generate(t, topogen.Config{Seed: 3, NumTier1: 3, NumTransit: 4, NumStub: 8, TransitPeerProb: 0.3})
		quirks(gen.Top)
		newWorld(t, "fuzz", gen.Top, 1, multihomed(gen.Top, gen.Stubs, 3)).run(t, data)
	})
}
