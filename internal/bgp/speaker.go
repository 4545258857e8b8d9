package bgp

import (
	"net/netip"
	"time"

	"lifeguard/internal/topo"
)

// Speaker is the BGP process of one AS.
type Speaker struct {
	e   *Engine
	asn topo.ASN
	// as is the topology's record of this AS (its policy quirks), cached:
	// import and export read it per update and per (prefix, neighbor).
	as *topo.AS
	// idx is this speaker's position in the engine's sorted ASN table —
	// the index into the engine's dense per-AS slices.
	idx int

	// rows is the session-slot table, both adj-RIBs in one (see rib.go):
	// session i's slot for prefix id is rows[int(id)*len(out)+i], holding
	// the offer accepted over the session and what it was last sent. It
	// grows by whole rows to the prefix table's size on the first write past
	// its end (growRows), so no slot ever moves; a speaker nothing reaches
	// keeps it nil.
	rows []slot
	// best is the loc-RIB: one pointer-free slot per prefix id (see rib.go),
	// kind locNone where no route is selected. nBest counts the others. It
	// grows on the first route installed past its end.
	best  []locEntry
	nBest int
	// routes remembers the *Route built from a slot for a caller of
	// Best/BestRoute/Lookup (see route), so two reads between changes return
	// one pointer; a read checks that it still describes the slot. It grows
	// on first read, so a speaker nobody reads keeps it nil. spare holds,
	// per slot, the Route that the last rebuild displaced, handed back when
	// the slot flips back to it (an unpoison, a heal); it grows on the first
	// read that finds routes stale, so a speaker read once per route keeps
	// it nil.
	routes []*Route
	spare  []*Route
	// origin holds locally-originated prefixes: the (sanitized) announcement
	// policy plus the originated loc-RIB route, built once per Announce so
	// decide does not reallocate it on every update. Indexed by prefix id;
	// it grows only at speakers that originate something, so a transit
	// speaker's stays empty.
	origin []*originEntry
	// out tracks per-neighbor send state, indexed by position in neighbors
	// (dense — the per-AS maps this replaces cost a map header per
	// neighbor pair engine-wide).
	out []outState
	// damp tracks RFC 2439 flap state per (neighbor, prefix).
	damp map[dampKey]*dampState

	neighbors []topo.ASN // the topology's row: ascending
	// nbrRel, peers and peerIdx cache, per neighbor index, the relationship
	// of the neighbor as seen from here, its speaker, and this AS's index in
	// that speaker's neighbor list: the topology is immutable after Build,
	// and export, delivery and import would otherwise pay a map lookup or a
	// binary search per (prefix, neighbor).
	nbrRel  []topo.Rel
	peers   []*Speaker
	peerIdx []int32
}

// originEntry pairs an origin policy with the cached plain [self] pattern
// and the interned handle of every path the policy can announce — so
// per-flush exports allocate and intern nothing.
type originEntry struct {
	cfg   OriginConfig
	plain topo.Path // the [self] path announced when cfg.Pattern is nil

	plainID   pathID
	patternID pathID // 0 when cfg.Pattern is nil
	perNbrID  map[topo.ASN]pathID
}

// export is one computed announcement: the wire path plus its interned
// handle (pid 0 never reaches deliver — ok=false withdraws instead).
type export struct {
	path topo.Path
	pid  pathID
}

// pattern returns the effective path (with handle) announced to neighbor n;
// ok=false when nothing is. AnnounceErr rejects a nil per-neighbor path, so
// an export never carries path handle 0.
func (ent *originEntry) pattern(n topo.ASN) (topo.Path, pathID, bool) {
	c := &ent.cfg
	if c.Withhold[n] {
		return nil, 0, false
	}
	if p, ok := c.PerNeighbor[n]; ok {
		return p, ent.perNbrID[n], true
	}
	if c.Pattern != nil {
		return c.Pattern, ent.patternID, true
	}
	return ent.plain, ent.plainID, true
}

// advRecord remembers what was last advertised to a neighbor for a prefix —
// an interned path handle instead of a path. pid 0 means nothing is
// advertised (an export never carries path handle 0).
type advRecord struct {
	pid pathID
}

// differs reports whether export ex (ok=false: no announcement) is news to a
// neighbor last sent r. A withdrawal is news only if something is advertised.
func (r advRecord) differs(ex export, ok bool) bool {
	if !ok {
		return r.pid != 0
	}
	return r.pid != ex.pid
}

// outState is one neighbor session's send-side state. lastDelivery (the
// per-directed-pair FIFO watermark), extra (chaos-installed propagation
// delay) and down (failed session) moved here from engine-wide maps keyed
// by AS pair.
type outState struct {
	// pending is the set of prefix ids queued for the next flush: the ones
	// that had news for this neighbor when they were marked (see hasNews).
	pending idSet
	// timerArmed says a timer event for this session is in the scheduler and
	// will flush.
	timerArmed bool
	// quietUntil is the session's remembered tick: the instant of the phase
	// timer drawn for a kick that had nothing to send (see idleKick), or the
	// end of the MRAI interval that follows a flush that sent (see
	// flushAndArm). No event stands behind it. While it lies ahead the
	// session behaves as if that timer were armed; once passed it means
	// nothing.
	quietUntil   time.Duration
	lastDelivery time.Duration
	extra        time.Duration
	down         bool
}

// advertised returns what session i last advertised for id.
func (s *Speaker) advertised(i int, id prefixID) advRecord {
	if k := int(id)*len(s.out) + i; k < len(s.rows) {
		return s.rows[k].adv
	}
	return advRecord{}
}

// row returns id's slots, one per session; nil when the table has not grown
// that far.
func (s *Speaker) row(id prefixID) []slot {
	n := len(s.out)
	if k := int(id) * n; k < len(s.rows) {
		return s.rows[k : k+n : k+n]
	}
	return nil
}

// growRows extends the slot table by whole rows to the prefix table's size.
func (s *Speaker) growRows() {
	s.rows = growTo(s.rows, s.e.prefixes.size()*len(s.out))
}

// offer rebuilds the adjEntry that session i's filled slot sl stands for.
func (s *Speaker) offer(i int, sl *slot) adjEntry {
	rel := s.nbrRel[i]
	return adjEntry{
		nbr:   s.neighbors[i],
		rel:   rel,
		plen:  sl.plen,
		lpref: int32(localPref(rel)),
		path:  sl.in,
	}
}

// newSpeaker builds asn's speaker; New fills peers once every speaker exists.
func newSpeaker(e *Engine, asn topo.ASN, idx int) *Speaker {
	s := &Speaker{
		e:         e,
		asn:       asn,
		as:        e.top.AS(asn),
		idx:       idx,
		damp:      make(map[dampKey]*dampState),
		neighbors: e.top.Neighbors(asn),
	}
	s.out = make([]outState, len(s.neighbors))
	s.nbrRel = make([]topo.Rel, len(s.neighbors))
	for i, n := range s.neighbors {
		s.nbrRel[i] = e.top.Rel(asn, n)
	}
	return s
}

// bestAt returns the loc-RIB slot for id; the zero slot (locNone) when the
// loc-RIB has not grown that far.
func (s *Speaker) bestAt(id prefixID) locEntry {
	if int(id) < len(s.best) {
		return s.best[id]
	}
	return locEntry{}
}

// route returns the selected route for id as a *Route, nil when there is
// none. The Route remembered for the slot is returned while it describes the
// slot; when it does not, the spare is swapped in if it does, and otherwise
// a new Route is built. Either way the displaced one becomes the spare, so
// a route that flips back and forth is built once per side.
func (s *Speaker) route(id prefixID) *Route {
	le := s.bestAt(id)
	if le.kind == locNone {
		return nil
	}
	if int(id) >= len(s.routes) {
		s.routes = growTo(s.routes, s.e.prefixes.size())
	}
	old := s.routes[id]
	if old != nil {
		if s.describes(old, &le) {
			return old
		}
		if int(id) >= len(s.spare) {
			s.spare = growTo(s.spare, s.e.prefixes.size())
		}
		if r := s.spare[id]; r != nil && s.describes(r, &le) {
			s.routes[id], s.spare[id] = r, old
			return r
		}
	}
	r := s.materialize(s.e.prefixes.pfx[id], &le.ent)
	if le.kind == locOriginated {
		r.Path, r.Originated = topo.Path{}, true
	}
	s.routes[id] = r
	if old != nil {
		s.spare[id] = old
	}
	return r
}

// describes reports whether r is the Route slot le builds, by sameRoute's
// identity: the kind, the neighbor and the path handle, whose canonical
// slice r.Path is for a learned slot. Rel and LocalPref follow from the
// neighbor's session, and an originated Route is the same every time, so
// nothing else can differ.
func (s *Speaker) describes(r *Route, le *locEntry) bool {
	if le.kind == locOriginated {
		return r.Originated
	}
	p := s.e.arena.path(le.ent.path)
	return !r.Originated && r.From == le.ent.nbr &&
		len(r.Path) == len(p) && (len(p) == 0 || &r.Path[0] == &p[0])
}

// originAt returns the origin entry for id, nil when s does not originate it.
func (s *Speaker) originAt(id prefixID) *originEntry {
	if int(id) < len(s.origin) {
		return s.origin[id]
	}
	return nil
}

// nbrIndex returns n's position in neighbors, or -1.
func (s *Speaker) nbrIndex(n topo.ASN) int { return s.e.top.NeighborIndex(s.asn, n) }

// neighborDown reports whether the session to n is failed (false when n is
// not a neighbor at all).
func (s *Speaker) neighborDown(n topo.ASN) bool {
	i := s.nbrIndex(n)
	return i >= 0 && s.out[i].down
}

// ASN returns the speaker's AS number.
func (s *Speaker) ASN() topo.ASN { return s.asn }

// Best returns the selected route for an exact prefix. Two calls with no
// change to that route between them return the same pointer, and so do two
// calls around a change and its undoing (see route). Like Lookup it
// may write (it remembers the Route it builds), so it belongs to the
// goroutine that owns the engine's scheduler.
func (s *Speaker) Best(p netip.Prefix) (*Route, bool) {
	id, _ := s.e.prefixes.lookup(p)
	r := s.route(id)
	return r, r != nil
}

// AdjIn returns the per-neighbor routes known for p, materialized from the
// compact store. The returned map and routes are the caller's to keep; the
// paths alias the engine's canonical interned copies and must be treated as
// read-only.
func (s *Speaker) AdjIn(p netip.Prefix) map[topo.ASN]*Route {
	var row []slot
	if id, ok := s.e.prefixes.lookup(p); ok {
		row = s.row(id)
	}
	out := make(map[topo.ASN]*Route)
	for i := range row {
		if row[i].in != 0 {
			ent := s.offer(i, &row[i])
			out[ent.nbr] = s.materialize(p, &ent)
		}
	}
	return out
}

// materialize builds the full Route for a compact entry.
func (s *Speaker) materialize(p netip.Prefix, ent *adjEntry) *Route {
	return &Route{
		Prefix:    p,
		Path:      s.e.arena.path(ent.path),
		From:      ent.nbr,
		Rel:       ent.rel,
		LocalPref: int(ent.lpref),
	}
}

// announce installs an origin config (already sanitized by the engine) and
// propagates resulting changes.
func (s *Speaker) announce(prefix netip.Prefix, cfg OriginConfig) {
	id := s.e.intern(prefix)
	ent := &originEntry{
		cfg:   cfg,
		plain: topo.Path{s.asn},
	}
	a := s.e.arena
	ent.plainID = a.internPath(ent.plain)
	if cfg.Pattern != nil {
		ent.patternID = a.internPath(cfg.Pattern)
	}
	if len(cfg.PerNeighbor) > 0 {
		ent.perNbrID = make(map[topo.ASN]pathID, len(cfg.PerNeighbor))
		for n, p := range cfg.PerNeighbor {
			ent.perNbrID[n] = a.internPath(p)
		}
	}
	if int(id) >= len(s.origin) {
		s.origin = growTo(s.origin, s.e.prefixes.size())
	}
	s.origin[id] = ent
	s.decide(id)
	// Even when the loc-RIB didn't change (origin routes always win),
	// the exported pattern may have: re-advertise everywhere.
	s.markAllPending(id)
}

func (s *Speaker) withdrawOrigin(prefix netip.Prefix) {
	id, _ := s.e.prefixes.lookup(prefix)
	if s.originAt(id) == nil {
		return
	}
	s.origin[id] = nil
	s.decide(id)
	s.markAllPending(id)
}

// receive applies one update arriving on the session with neighbor ri: it
// folds the update into the session's slot and, when the stored offer
// changed, runs the decision process and queues the result for export.
func (s *Speaker) receive(ri int, u update) {
	from := s.neighbors[ri]
	s.e.obs.updatesReceived.Inc()
	if u.path == nil {
		s.e.obs.withdrawalsReceived.Inc()
	}
	id := u.id
	k := int(id)*len(s.out) + ri
	var old pathID
	if k < len(s.rows) {
		old = s.rows[k].in
	}
	if u.path == nil || !s.importOK(from, u.path) {
		// Withdrawal, or a route rejected by import policy: either way
		// the neighbor no longer offers a usable route.
		if old == 0 {
			return
		}
		// Losing a known route is a genuine change, so it counts as a
		// flap (RFC 2439 §4.4.3).
		if s.e.cfg.Dampening {
			s.noteFlap(dampKey{from: from, id: id})
		}
		s.rows[k].in, s.rows[k].plen = 0, 0
	} else {
		// Flush always ships the interned handle alongside the path; an
		// update injected without it (only tests do) is interned here, on a
		// defensive copy since the arena aliases what it is handed.
		pid := u.pid
		if pid == 0 {
			pid = s.e.arena.internPath(u.path.Clone())
		}
		if old == pid {
			// Duplicate re-advertisement: RFC 2439 §4.4.3 counts only
			// updates that *change* an existing route, so no penalty.
			return
		}
		// A replacement announcement for a known route is a flap; the
		// first announcement from this neighbor is not.
		if old != 0 && s.e.cfg.Dampening {
			s.noteFlap(dampKey{from: from, id: id})
		}
		if k >= len(s.rows) {
			s.growRows()
		}
		s.rows[k].in, s.rows[k].plen = pid, uint16(len(u.path))
	}
	if s.decide(id) {
		s.markAllPending(id)
	}
}

func localPref(rel topo.Rel) int {
	switch rel {
	case topo.RelCustomer:
		return prefCustomer
	case topo.RelPeer:
		return prefPeer
	default:
		return prefProvider
	}
}

// importOK applies loop prevention and the §7.1 policy quirks.
func (s *Speaker) importOK(from topo.ASN, path topo.Path) bool {
	if len(path) == 0 || path[0] != from {
		return false
	}
	as := s.as
	// MaxOwnASOccurs == 0 disables loop detection entirely (§7.1).
	if as.MaxOwnASOccurs > 0 && path.Count(s.asn) >= as.MaxOwnASOccurs {
		return false
	}
	if as.FilterPeersFromCustomers && s.e.top.Rel(s.asn, from) == topo.RelCustomer {
		for _, a := range path {
			if s.e.top.Rel(s.asn, a) == topo.RelPeer {
				return false
			}
		}
	}
	return true
}

// decide runs the decision process for prefix; reports whether the loc-RIB
// changed. The winner is copied into the prefix's slot; nothing is allocated.
func (s *Speaker) decide(id prefixID) bool {
	s.e.obs.decisionRuns.Inc()
	old := s.bestAt(id)
	var nw locEntry
	if s.originAt(id) != nil {
		// Originated routes carry prefOriginated, above every imported
		// local-pref tier: they always win.
		nw = locEntry{kind: locOriginated, ent: adjEntry{nbr: s.asn, lpref: prefOriginated}}
	} else {
		// entryBetter ends on the neighbor ASN, a total order, so the scan
		// order never picks the winner.
		row := s.row(id)
		for i := range row {
			if row[i].in == 0 {
				continue
			}
			ent := s.offer(i, &row[i])
			if s.e.cfg.Dampening && s.suppressed(ent.nbr, id) {
				continue
			}
			if nw.kind == locNone || entryBetter(&ent, &nw.ent) {
				nw = locEntry{kind: locLearned, ent: ent}
			}
		}
	}
	if old.sameRoute(&nw) {
		return false
	}
	s.e.ribVersion++
	if !old.sameForwarding(&nw) {
		s.e.fwdVersion[s.idx]++
		s.e.prefixes.fwd[id]++
	}
	if int(id) >= len(s.best) {
		// Only to install a route: old is locNone, nw is not.
		s.best = growTo(s.best, s.e.prefixes.size())
	}
	s.best[id] = nw
	switch {
	case nw.kind == locNone:
		s.nBest--
		s.e.obs.locRIBRoutes.Dec()
	case old.kind == locNone:
		s.nBest++
		s.e.obs.locRIBRoutes.Inc()
	}
	s.e.notifyBest(s, s.e.prefixes.pfx[id], &nw)
	return true
}

// markAllPending offers prefix id to every neighbor session after its export
// may have changed: a session with news queues the prefix and is kicked, one
// without still consumes its tick (idleKick) but queues and schedules
// nothing.
func (s *Speaker) markAllPending(id prefixID) {
	n := s.e.prefixes.size()
	for i := range s.out {
		if s.hasNews(i, id) {
			s.out[i].pending.add(id, n)
			s.kick(i)
		} else {
			s.idleKick(i)
		}
	}
}

// hasNews reports whether a flush toward neighbor i would send anything for
// prefix id as things stand: the session is up and the export differs from
// what was last advertised. It compares exports, never loc-RIB routes — an
// origin's pattern can change under an unchanged originated route. For a
// learned route it answers what flush's exportTo and differs would, without
// building the export path: a route selected now may be replaced before any
// flush sends it, and the arena never forgets a path it was handed.
func (s *Speaker) hasNews(i int, id prefixID) bool {
	st := &s.out[i]
	if st.down {
		return false
	}
	last := s.advertised(i, id)
	if s.originAt(id) != nil {
		ex, ok := s.exportTo(i, id) // every handle was interned at Announce
		return last.differs(ex, ok)
	}
	b := s.bestAt(id)
	if !s.mayExport(i, &b) {
		return last.pid != 0
	}
	return last.pid == 0 || !s.exportIs(&b, last.pid)
}

// exportIs reports whether learned slot b is exported with the interned path
// pid, without building or interning that path when b has not been exported
// yet.
func (s *Speaker) exportIs(b *locEntry, pid pathID) bool {
	if b.exp != 0 {
		return b.exp == pid
	}
	p, tail := s.e.arena.path(pid), s.e.arena.path(b.ent.path)
	return len(p) == len(tail)+1 && p[0] == s.asn && p[1:].Equal(tail)
}

// kick schedules a flush toward neighbor i unless an advertisement timer is
// already running; in that case the pending prefixes ride along when it
// expires. The per-neighbor MRAI timer is modelled as free-running: a
// freshly-kicked session flushes at the timer's next tick, a uniform phase
// away — this is what spreads update propagation over tens of seconds per
// hop and gives realistic global convergence times. A remembered tick still
// ahead (idleKick, or the MRAI interval after a flush) is that timer already
// running: the flush is scheduled at its instant, not at a fresh draw.
func (s *Speaker) kick(i int) {
	st := &s.out[i]
	if st.timerArmed {
		s.e.obs.mraiDeferrals.Inc()
		return
	}
	st.timerArmed = true
	d := st.quietUntil - s.e.clk.Now()
	if d > 0 {
		s.e.obs.mraiDeferrals.Inc()
	} else {
		d = s.e.phase()
	}
	s.e.schedTimer(s, i, d)
}

// idleKick is kick for a session with nothing to send. The session's
// free-running timer ticks all the same, so its phase is drawn exactly where
// kick would have drawn it — the engine's rng stream does not depend on who
// had news — but the tick is remembered in quietUntil instead of scheduled:
// an event whose flush could only send nothing is not worth a heap slot.
func (s *Speaker) idleKick(i int) {
	st := &s.out[i]
	now := s.e.clk.Now()
	if st.timerArmed || st.quietUntil > now {
		s.e.obs.mraiDeferrals.Inc()
		return
	}
	st.quietUntil = now + s.e.phase()
	s.e.obs.idleTicks.Inc()
}

// timerFired handles an expired timer for neighbor i.
func (s *Speaker) timerFired(i int) {
	st := &s.out[i]
	st.timerArmed = false
	if st.pending.n > 0 {
		s.flushAndArm(i)
	}
}

// flushAndArm flushes toward neighbor i and, if that sent anything, starts
// the session's MRAI interval: one jittered MRAI, drawn right after the
// flush's own draws. The interval's end is remembered in quietUntil, like an
// idle tick, and not scheduled — news inside it rides that instant (kick),
// and an interval that ends with nothing queued did nothing. The engine's
// horizon waits for the latest of them (afterEvent).
func (s *Speaker) flushAndArm(i int) {
	if s.flush(i) == 0 {
		return
	}
	e := s.e
	until := e.clk.Now() + e.jitter(e.cfg.MRAI, e.cfg.MRAIJitter)
	s.out[i].quietUntil = until
	e.mraiUntil = max(e.mraiUntil, until)
}

// flush sends the pending prefixes to neighbor i, deduplicating against
// what was last advertised; it returns the number of messages sent.
func (s *Speaker) flush(i int) int {
	st := &s.out[i]
	// A down session has nothing pending: losing it reset the set, and
	// hasNews queues nothing toward it until it returns.
	ids := st.pending.drain(s.e.flushIDs[:0])
	s.e.flushIDs = ids
	s.e.prefixes.sortByRank(ids)
	sent := 0
	for _, id := range ids {
		ex, ok := s.exportTo(i, id)
		if !s.advertised(i, id).differs(ex, ok) {
			continue
		}
		sent++
		k := int(id)*len(s.out) + i
		if !ok {
			s.rows[k].adv = advRecord{} // differs: something was advertised, so k is in range
			s.e.deliver(s, i, update{id: id})
			continue
		}
		if k >= len(s.rows) {
			s.growRows()
		}
		s.rows[k].adv = advRecord{pid: ex.pid}
		s.e.deliver(s, i, update{id: id, path: ex.path, pid: ex.pid})
	}
	return sent
}

// exportTo computes the announcement of prefix id to the i-th neighbor,
// applying origin patterns, valley-free export policy and split horizon.
// ok=false means "no announcement" (neighbor should hold no route from us).
func (s *Speaker) exportTo(i int, id prefixID) (export, bool) {
	if ent := s.originAt(id); ent != nil {
		pat, pid, announce := ent.pattern(s.neighbors[i])
		if !announce {
			return export{}, false
		}
		// The config was deep-copied at the Announce boundary and its paths
		// are immutable from there on, so exports alias them without a per-flush clone.
		return export{path: pat, pid: pid}, true
	}
	if int(id) >= len(s.best) || !s.mayExport(i, &s.best[id]) {
		return export{}, false
	}
	b := &s.best[id]
	if b.exp == 0 {
		// Every neighbor receives the same prepended path, so one arena
		// round-trip serves all exports of this route.
		b.exp = s.e.arena.internPrepended(s.asn, b.ent.path)
	}
	return export{path: s.e.arena.path(b.exp), pid: b.exp}, true
}

// mayExport applies split horizon and valley-free export policy to learned
// slot b (locNone: no route) toward neighbor i.
func (s *Speaker) mayExport(i int, b *locEntry) bool {
	if b.kind == locNone || b.ent.nbr == s.neighbors[i] {
		return false
	}
	// Valley-free export: routes learned from peers or providers are
	// exported only to customers.
	return s.nbrRel[i] == topo.RelCustomer || b.ent.rel == topo.RelCustomer
}
