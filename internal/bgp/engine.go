package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// Engine owns one Speaker per AS and drives protocol dynamics over a
// simclock.Scheduler.
type Engine struct {
	top   *topo.Topology
	clk   *simclock.Scheduler
	cfg   Config
	rng   *rand.Rand
	arena *arena
	// prefixes interns every prefix the engine has seen; per-speaker RIB
	// state is indexed by its ids (see prefixtab.go).
	prefixes *prefixTable
	// byIdx holds the speakers by topology index (topo.Topology.Index),
	// which is also a speaker's idx and indexes every dense per-AS slice
	// below: a timer event names its speaker by idx and resolves it here.
	byIdx []*Speaker
	obs   engineObs

	// OnBestChange, if set, observes every loc-RIB change engine-wide.
	OnBestChange func(BestChange)

	// pendingEvents counts scheduled BGP events (message deliveries, armed
	// timers and the horizon); zero means the control plane is quiescent.
	// Idle ticks and post-send MRAI intervals are remembered, not
	// scheduled, and are not counted.
	pendingEvents int
	// mraiUntil is the latest instant to which any session's post-send MRAI
	// interval runs (see flushAndArm). While it lies ahead of the last BGP
	// event, one horizon event stands at it (see afterEvent), so the control
	// plane goes quiet when the last of those intervals ends.
	mraiUntil time.Duration

	// Protocol events carry no closure: an update in flight is parked in
	// the inflight slab and its delivery event carries the slot; a timer
	// event carries (speaker idx, neighbor idx). fireDeliver, fireTimer and
	// fireHorizon are the callbacks, bound once in New. A slot is taken in
	// deliver and returned to inflightFree when its event fires — delivery
	// events are never cancelled, so every slot comes back.
	inflight     []inflightUpdate
	inflightFree []uint32
	fireDeliver  func(slot uint64)
	fireTimer    func(packed uint64)
	fireHorizon  func(uint64)
	// flushIDs is the buffer every flush reads its pending set into: flush
	// never nests (deliveries are scheduled), so one serves every session.
	flushIDs []prefixID

	// updatesSent counts announcements+withdrawals sent per AS — the raw
	// material for the Table 2 update-load analysis — densely indexed by
	// speaker idx (it replaces a per-AS map; read it via UpdatesSentBy /
	// TotalUpdatesSent).
	updatesSent []int64

	// ribVersion counts loc-RIB changes engine-wide (see RIBVersion);
	// fwdVersion counts, per speaker idx, the ones that changed what a
	// packet does there (see FwdVersion).
	ribVersion uint64
	fwdVersion []uint64
}

// New builds an engine over the topology. No routes exist until Originate or
// Announce is called. New panics on a jitter fraction above 1: it could draw
// a negative delay, which the scheduler would only reject mid-run.
func New(top *topo.Topology, clk *simclock.Scheduler, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if max(cfg.PropJitter, cfg.MRAIJitter) > 1 {
		panic(fmt.Sprintf("bgp: Config has PropJitter %v, MRAIJitter %v: a jitter fraction may not exceed 1", cfg.PropJitter, cfg.MRAIJitter))
	}
	e := &Engine{
		top:         top,
		clk:         clk,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		arena:       newArena(),
		prefixes:    newPrefixTable(),
		obs:         newEngineObs(cfg.Obs),
		updatesSent: make([]int64, top.NumASes()),
		fwdVersion:  make([]uint64, top.NumASes()),
	}
	e.byIdx = make([]*Speaker, top.NumASes())
	for i, asn := range top.ASNs() {
		e.byIdx[i] = newSpeaker(e, asn, i)
	}
	e.fireDeliver = e.deliverArrived
	e.fireTimer = e.timerExpired
	e.fireHorizon = e.horizonReached
	for _, s := range e.byIdx {
		s.peers = make([]*Speaker, len(s.neighbors))
		s.peerIdx = make([]int32, len(s.neighbors))
		for i, n := range s.neighbors {
			s.peers[i] = e.Speaker(n)
			s.peerIdx[i] = int32(s.peers[i].nbrIndex(s.asn))
		}
	}
	return e
}

// Topology returns the topology the engine routes over.
func (e *Engine) Topology() *topo.Topology { return e.top }

// Clock returns the scheduler driving the engine.
func (e *Engine) Clock() *simclock.Scheduler { return e.clk }

// Dampening reports whether the engine runs route-flap dampening.
func (e *Engine) Dampening() bool { return e.cfg.Dampening }

// Speaker returns the speaker for asn, or nil if the AS does not exist.
func (e *Engine) Speaker(asn topo.ASN) *Speaker {
	if i, ok := e.top.Index(asn); ok {
		return e.byIdx[i]
	}
	return nil
}

// Prefixes returns every prefix the engine has seen, sorted.
func (e *Engine) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(e.prefixes.order))
	for _, id := range e.prefixes.order {
		out = append(out, e.prefixes.pfx[id])
	}
	return out
}

// UpdatesSentBy reports how many updates (announcements + withdrawals) asn
// has sent; 0 for an unknown AS.
func (e *Engine) UpdatesSentBy(asn topo.ASN) int {
	if i, ok := e.top.Index(asn); ok {
		return int(e.updatesSent[i])
	}
	return 0
}

// TotalUpdatesSent reports the engine-wide update count.
func (e *Engine) TotalUpdatesSent() int {
	total := 0
	for _, c := range e.updatesSent {
		total += int(c)
	}
	return total
}

// RIBSizes reports the aggregate routing-state footprint: selected loc-RIB
// routes and accepted offers (filled adj-RIB-in slots) across every speaker.
// The scale benchmarks divide memory by these to normalize across topology
// sizes.
func (e *Engine) RIBSizes() (locRIB, adjEntries int) {
	for _, s := range e.byIdx {
		locRIB += s.nBest
		for k := range s.rows {
			if s.rows[k].in != 0 {
				adjEntries++
			}
		}
	}
	return locRIB, adjEntries
}

// intern returns p's id, growing the prefix table, and with it the trie whose
// size the lpm_nodes gauge reports, on first sight.
func (e *Engine) intern(p netip.Prefix) prefixID {
	before := e.prefixes.cover.nodes
	id := e.prefixes.intern(p)
	e.obs.lpmNodes.Add(int64(e.prefixes.cover.nodes - before))
	return id
}

// Originate announces prefix from asn with the plain [asn] path.
func (e *Engine) Originate(asn topo.ASN, prefix netip.Prefix) {
	e.Announce(asn, prefix, OriginConfig{})
}

// Announce installs (or replaces) the origin configuration for prefix at asn
// and propagates the resulting updates. Use it for baseline prepending,
// poisoning, selective poisoning, and selective advertising alike.
//
// Announce panics on an invalid request (unknown AS, malformed pattern, or
// unusable prefix) — convenient for tests and experiment scripts where an
// invalid announcement is a programming error. Operational callers that
// must survive bad input use AnnounceErr; the two are otherwise identical.
func (e *Engine) Announce(asn topo.ASN, prefix netip.Prefix, cfg OriginConfig) {
	if err := e.AnnounceErr(asn, prefix, cfg); err != nil {
		panic(err)
	}
}

// AnnounceErr is Announce with an error contract instead of panics. It
// rejects an unknown AS, a pattern violating the §3.1.1 origin conventions
// (for Pattern and every PerNeighbor override), a nil PerNeighbor path
// (Withhold is the one way to withhold), and a prefix that is not a
// masked IPv4 prefix (the address plan is IPv4-only, and the loc-RIB and
// LPM index key by the masked form). On error nothing is installed and no
// update propagates. The config is deep-copied before installation, so the
// caller may reuse or mutate it afterwards.
func (e *Engine) AnnounceErr(asn topo.ASN, prefix netip.Prefix, cfg OriginConfig) error {
	s := e.Speaker(asn)
	if s == nil {
		return fmt.Errorf("bgp: Announce from unknown AS %d", asn)
	}
	if err := validatePrefix(prefix); err != nil {
		return err
	}
	if err := validatePattern(asn, cfg.Pattern); err != nil {
		return err
	}
	for n, p := range cfg.PerNeighbor {
		if p == nil {
			return fmt.Errorf("bgp: per-neighbor %d: nil path (use Withhold to withhold)", n)
		}
		if err := validatePattern(asn, p); err != nil {
			return fmt.Errorf("per-neighbor %d: %w", n, err)
		}
	}
	cfg = cfg.sanitized()
	s.announce(prefix, cfg)
	return nil
}

// validatePrefix enforces the RIB keying contract: announced prefixes are
// masked IPv4 prefixes. Anything else would be unreachable (IPv6 has no
// routers in the address plan) or would alias its masked form in lookups
// while remaining a distinct exact-match key.
func validatePrefix(p netip.Prefix) error {
	if !p.IsValid() || !p.Addr().Is4() {
		return fmt.Errorf("bgp: prefix %v is not a valid IPv4 prefix", p)
	}
	if p != p.Masked() {
		return fmt.Errorf("bgp: prefix %v has host bits set (use %v)", p, p.Masked())
	}
	return nil
}

// validatePattern enforces the §3.1.1 conventions: the origin must be both
// the first AS (next hop for neighbors) and the last AS (registered origin).
func validatePattern(self topo.ASN, p topo.Path) error {
	if p == nil {
		return nil
	}
	if len(p) == 0 {
		return fmt.Errorf("bgp: empty path pattern for AS %d", self)
	}
	if p[0] != self || p[len(p)-1] != self {
		return fmt.Errorf("bgp: pattern %v must start and end with origin %d", p, self)
	}
	return nil
}

// Withdraw removes asn's origin configuration for prefix and propagates
// withdrawals. Like Announce it panics on an unknown AS (it used to no-op
// silently, hiding typos in experiment scripts); withdrawing a prefix the
// AS does not originate remains a harmless no-op. Operational callers use
// WithdrawErr.
func (e *Engine) Withdraw(asn topo.ASN, prefix netip.Prefix) {
	if err := e.WithdrawErr(asn, prefix); err != nil {
		panic(err)
	}
}

// WithdrawErr is Withdraw with an error contract instead of panics: an
// unknown AS is an error; withdrawing a non-originated prefix is a no-op.
func (e *Engine) WithdrawErr(asn topo.ASN, prefix netip.Prefix) error {
	s := e.Speaker(asn)
	if s == nil {
		return fmt.Errorf("bgp: Withdraw from unknown AS %d", asn)
	}
	s.withdrawOrigin(prefix)
	return nil
}

// OriginAnnouncement is one locally-originated prefix and its announcement
// policy, as enumerated by Origins.
type OriginAnnouncement struct {
	Prefix netip.Prefix
	Config OriginConfig
}

// Origins enumerates asn's locally-originated prefixes in sorted prefix
// order, each with a deep copy of its installed (sanitized) config. Chaos
// router-crash faults use it to capture the announcement set before a
// withdraw-all and replay it verbatim on restart; nil for an unknown AS.
func (e *Engine) Origins(asn topo.ASN) []OriginAnnouncement {
	s := e.Speaker(asn)
	if s == nil {
		return nil
	}
	out := []OriginAnnouncement{}
	for _, id := range e.prefixes.order {
		if ent := s.originAt(id); ent != nil {
			out = append(out, OriginAnnouncement{Prefix: e.prefixes.pfx[id], Config: ent.cfg.sanitized()})
		}
	}
	return out
}

// ReannounceOrigins re-announces every prefix asn already originates with
// its installed config, in sorted prefix order, and returns how many were
// re-sent. This is the deferred re-announce at the end of a graceful
// restart: the origin state survived the control-plane outage (stale-route
// retention), and replaying it refreshes neighbors without ever having
// withdrawn — routes that did not change produce no routing churn beyond
// the refresh updates themselves. Zero for an unknown AS.
func (e *Engine) ReannounceOrigins(asn topo.ASN) int {
	anns := e.Origins(asn)
	for _, a := range anns {
		e.Announce(asn, a.Prefix, a.Config)
	}
	return len(anns)
}

// SetLinkExtraDelay adds d of control-plane propagation delay to every BGP
// message crossing the a–b adjacency (both directions); d = 0 removes the
// slowdown, and a negative d panics — it is always a caller bug, never a
// removal request. The delay is applied after the per-message jitter draw,
// so toggling it never perturbs the engine's rng stream — chaos "update
// delay" faults compose with otherwise-identical runs. Panics if a and b
// are not adjacent, matching SetAdjacencyDown.
func (e *Engine) SetLinkExtraDelay(a, b topo.ASN, d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("bgp: SetLinkExtraDelay(%d, %d): negative delay %v", a, b, d))
	}
	if !e.top.Adjacent(a, b) {
		panic(fmt.Sprintf("bgp: SetLinkExtraDelay(%d, %d): not adjacent", a, b))
	}
	sa, sb := e.Speaker(a), e.Speaker(b)
	sa.out[sa.nbrIndex(b)].extra = d
	sb.out[sb.nbrIndex(a)].extra = d
}

// LinkExtraDelay returns the extra control-plane delay currently installed
// on the a→b direction (zero when none, or when the ASes are not adjacent).
func (e *Engine) LinkExtraDelay(a, b topo.ASN) time.Duration {
	if i := e.top.NeighborIndex(a, b); i >= 0 {
		return e.Speaker(a).out[i].extra
	}
	return 0
}

// BestRoute returns asn's selected route for an exact prefix: Speaker.Best,
// with its contract — one pointer per route between changes, and a caller on
// the goroutine that owns the scheduler, because the read may remember the
// Route it builds.
func (e *Engine) BestRoute(asn topo.ASN, prefix netip.Prefix) (*Route, bool) {
	s := e.Speaker(asn)
	if s == nil {
		return nil, false
	}
	return s.Best(prefix)
}

// Lookup performs longest-prefix match for addr in asn's loc-RIB: one bounded
// walk down the engine's trie over every interned prefix (see lpm.go), keeping
// the deepest prefix asn holds a route for, so a miss or hit costs no
// allocation but for the first read of a route since it changed to one it
// did not hold just before (see Speaker.route). The data plane
// reads the same match through NextHop, which builds no Route. The full IPv4 length range /0../32
// matches, default routes included; non-IPv4 addresses (which the address
// plan never routes) report no route. The Route returned is the one BestRoute
// returns for the matched prefix, pointer for pointer. Like BestRoute, Lookup
// may write — the first call after a route changed remembers its Route,
// built or handed back — so it too belongs to the goroutine that owns the scheduler; the
// engine takes no lock.
func (e *Engine) Lookup(asn topo.ASN, addr netip.Addr) (*Route, bool) {
	s := e.Speaker(asn)
	if s == nil {
		return nil, false
	}
	key, ok := v4Key(addr)
	if !ok {
		return nil, false
	}
	r := s.route(e.prefixes.cover.longest(key, s.best))
	return r, r != nil
}

// NextHop is Lookup reduced to what a forwarding hop reads of the matched
// route, read straight from its loc-RIB slot: local for an originated route
// (deliver here), otherwise next, the neighbor it was learned from — the
// route's Path[0], since import accepts a path only if it starts with its
// sender. ok is false where Lookup finds no route. No Route is built, so
// NextHop never allocates, and it only reads.
func (e *Engine) NextHop(asn topo.ASN, addr netip.Addr) (next topo.ASN, local, ok bool) {
	s := e.Speaker(asn)
	if s == nil {
		return 0, false, false
	}
	key, ok := v4Key(addr)
	if !ok {
		return 0, false, false
	}
	switch le := s.bestAt(e.prefixes.cover.longest(key, s.best)); le.kind {
	case locNone:
		return 0, false, false
	case locOriginated:
		return 0, true, true
	default:
		return le.ent.nbr, false, true
	}
}

// RIBVersion advances by one for every loc-RIB change at any speaker
// (Speaker.decide is the only place a selected route is written). Between
// two equal readings no Lookup result can have changed, so the data plane's
// walk cache answers without its per-entry checks (FwdVersion, DstVersion)
// while it holds.
func (e *Engine) RIBVersion() uint64 { return e.ribVersion }

// FwdVersion counts the loc-RIB changes at the AS of topology Index i that
// changed how that AS forwards: a prefix gaining or losing its route
// (which reshapes the longest-prefix match), or a route changing its
// next-hop AS or whether it is Originated. It stays put through the far more
// common change that rewrites only the path attribute behind the same next
// hop — over a prepended O-O-O baseline, all a poison O-A-O does at an AS
// that did not route through A (§3.1.1) — so a forwarding walk stays valid
// while the FwdVersion of every AS it crossed holds still.
func (e *Engine) FwdVersion(i int) uint64 { return e.fwdVersion[i] }

// DstVersion moves whenever Lookup(asn, addr) forwards differently at any
// AS. It is the sum, over every interned prefix covering addr, of the
// forwarding changes decide has counted for that prefix at any speaker (the
// same changes FwdVersion counts per AS): whichever prefix an AS matches
// addr by is one of them, and so is any more-specific whose first route
// anywhere would reshape the match — it is counted from the moment it is
// interned, routed or not, which is why the sum runs over the prefix table
// and not over the one prefix addr matches today. The terms only grow, so
// two equal readings mean no AS forwards addr differently; a non-IPv4
// address, which nothing routes, reads 0.
func (e *Engine) DstVersion(addr netip.Addr) uint64 {
	key, ok := v4Key(addr)
	if !ok {
		return 0
	}
	return e.prefixes.cover.sumCovering(key, e.prefixes.fwd)
}

// ASPathTo returns asn's current AS-level path toward addr (LPM), nil if it
// has no route. The returned path is the RIB path, poisons included.
func (e *Engine) ASPathTo(asn topo.ASN, addr netip.Addr) topo.Path {
	r, ok := e.Lookup(asn, addr)
	if !ok {
		return nil
	}
	return r.Path.Clone()
}

// Quiescent reports whether no BGP message is in flight, no timer that will
// flush is armed and no session's post-send MRAI interval is still running.
// A remembered idle tick (Speaker.idleKick) is none of these: it stands for
// a timer with nothing to send, so Converge does not wait for it. The MRAI
// intervals are waited out through the horizon event (afterEvent), so
// Converge returns when the last of them ends.
func (e *Engine) Quiescent() bool { return e.pendingEvents == 0 }

// Converge steps the scheduler until the control plane is quiescent or the
// step budget is exhausted; it reports whether quiescence was reached. Other
// scheduled events (monitors, probes) run as encountered.
func (e *Engine) Converge(maxSteps int) bool {
	for i := 0; i < maxSteps; i++ {
		if e.Quiescent() {
			return true
		}
		if !e.clk.Step() {
			return e.Quiescent()
		}
	}
	return e.Quiescent()
}

// jitter returns d scaled by a uniform factor in [1-j, 1+j].
func (e *Engine) jitter(d time.Duration, j float64) time.Duration {
	if j <= 0 {
		return d
	}
	f := 1 + j*(2*e.rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// deliver schedules u from s toward its i-th neighbor, preserving per-pair
// FIFO order via the session's lastDelivery watermark.
func (e *Engine) deliver(s *Speaker, i int, u update) {
	e.updatesSent[s.idx]++
	e.obs.updatesSent.Inc()
	st := &s.out[i]
	at := e.clk.Now() + e.jitter(propDelay, e.cfg.PropJitter) + st.extra
	if at <= st.lastDelivery {
		at = st.lastDelivery + time.Microsecond
	}
	st.lastDelivery = at
	e.pendingEvents++
	e.clk.AtCall(at, e.fireDeliver, e.park(inflightUpdate{dst: s.peers[i], ri: s.peerIdx[i], u: u}))
}

// inflightUpdate is one update between deliver and its arrival: the
// receiver and the index, in the receiver's neighbor list, of the session it
// arrives on (the sender is dst.neighbors[ri]).
type inflightUpdate struct {
	dst *Speaker
	ri  int32
	u   update
}

// park stores m in a free inflight slot and returns the slot.
func (e *Engine) park(m inflightUpdate) uint64 {
	if n := len(e.inflightFree); n > 0 {
		slot := e.inflightFree[n-1]
		e.inflightFree = e.inflightFree[:n-1]
		e.inflight[slot] = m
		return uint64(slot)
	}
	e.inflight = append(e.inflight, m)
	return uint64(len(e.inflight) - 1)
}

// deliverArrived is the delivery event.
func (e *Engine) deliverArrived(slot uint64) {
	m := e.inflight[slot]
	e.inflight[slot] = inflightUpdate{}
	e.inflightFree = append(e.inflightFree, uint32(slot))
	e.pendingEvents--
	if !m.dst.out[m.ri].down { // else the session died while it was in flight
		m.dst.receive(int(m.ri), m.u)
	}
	e.afterEvent()
}

// phase draws the distance to the next tick of a free-running MRAI timer: a
// uniform phase in [0, MRAI). The draw is separate from the event because a
// session with nothing to send takes the one without the other (idleKick).
func (e *Engine) phase() time.Duration {
	return time.Duration(e.rng.Float64() * float64(e.cfg.MRAI))
}

func (e *Engine) schedTimer(s *Speaker, i int, d time.Duration) {
	e.pendingEvents++
	e.clk.AfterCall(d, e.fireTimer, uint64(s.idx)<<32|uint64(i))
}

// timerExpired is the timer event.
func (e *Engine) timerExpired(packed uint64) {
	e.pendingEvents--
	e.byIdx[packed>>32].timerFired(int(uint32(packed)))
	e.afterEvent()
}

// afterEvent ends every BGP event. When the event left nothing in flight and
// no timer armed while a post-send MRAI interval is still running, it arms
// the horizon at mraiUntil and counts it, so Quiescent stays false until the
// last interval ends. Every path out of a BGP event must call it: the event
// that leaves nothing pending may be any of them.
func (e *Engine) afterEvent() {
	if e.pendingEvents == 0 && e.clk.Now() < e.mraiUntil {
		e.pendingEvents++
		e.clk.AtCall(e.mraiUntil, e.fireHorizon, 0)
	}
}

// horizonReached is the horizon event. A flush after it was armed may have
// pushed mraiUntil further out; afterEvent then arms it again.
func (e *Engine) horizonReached(uint64) {
	e.pendingEvents--
	e.afterEvent()
}

// schedReuse arms a dampening reuse check d from now. Reuse timers are
// long-lived wall-clock state, not in-flight protocol work, so they do not
// count toward Quiescent().
func (e *Engine) schedReuse(s *Speaker, k dampKey, d time.Duration) {
	e.clk.After(d, func() { s.reuseCheck(k) })
}

// notifyBest publishes a loc-RIB change to slot nw. The path is resolved and
// cloned here, behind the nil check, so runs without an observer pay nothing
// per change.
func (e *Engine) notifyBest(s *Speaker, prefix netip.Prefix, nw *locEntry) {
	if e.OnBestChange == nil {
		return
	}
	var path topo.Path
	if nw.kind == locLearned {
		path = e.arena.path(nw.ent.path).Clone()
	}
	e.OnBestChange(BestChange{At: e.clk.Now(), AS: s.asn, Prefix: prefix, Path: path})
}
