package bgp

import (
	"math"
	"net/netip"
	"time"

	"lifeguard/internal/topo"
)

// Route-flap dampening (RFC 2439). The paper's deployment held each
// announcement for 90 minutes precisely "to allow convergence and to avoid
// flap dampening effects" (§5); with dampening enabled here, an origin that
// poisons and unpoisons too eagerly gets its prefix suppressed by remote
// ASes — the ablation benchmark quantifies that trade-off.

// The RFC 2439 parameters, at the classic Cisco defaults.
const (
	// flapPenalty is added per flap (an update that changes an existing
	// route, or a withdrawal).
	flapPenalty = 1000
	// suppressAt is the penalty above which the route is suppressed.
	suppressAt = 2000
	// reuseAt is the penalty below which a suppressed route is usable
	// again.
	reuseAt = 750
	// halfLife is the half-life of the exponential decay.
	halfLife = 15 * time.Minute
	// maxPenalty caps accumulation.
	maxPenalty = 12000
)

// dampKey identifies one dampened (neighbor, prefix) pair at a speaker.
type dampKey struct {
	from topo.ASN
	id   prefixID
}

// dampState tracks one pair's figure of merit.
type dampState struct {
	penalty    float64
	updatedAt  time.Duration
	suppressed bool
}

// decayedPenalty returns the penalty decayed to virtual time now.
func (d *dampState) decayedPenalty(now time.Duration) float64 {
	dt := now - d.updatedAt
	if dt <= 0 {
		return d.penalty
	}
	return d.penalty * math.Exp2(-float64(dt)/float64(halfLife))
}

// noteFlap records a flap of the pair k: its penalty decays to now and gains
// flapPenalty, up to maxPenalty. A pair that reaches suppressAt is suppressed
// and its reuse check scheduled for when the penalty will be down to reuseAt.
func (s *Speaker) noteFlap(k dampKey) {
	now := s.e.clk.Now()
	st := s.damp[k]
	if st == nil {
		st = &dampState{updatedAt: now}
		s.damp[k] = st
	}
	st.penalty = st.decayedPenalty(now) + flapPenalty
	if st.penalty > maxPenalty {
		st.penalty = maxPenalty
	}
	st.updatedAt = now
	s.e.obs.dampPenalties.Inc()
	if !st.suppressed && st.penalty >= suppressAt {
		st.suppressed = true
		s.e.obs.dampSuppressions.Inc()
		// Schedule the reuse check for when the penalty decays to the
		// reuse threshold.
		s.e.schedReuse(s, k, reuseDelay(st.penalty))
	}
}

// reuseDelay projects how long until penalty decays to the reuse
// threshold, floored at one second so a marginal overshoot cannot re-arm
// at the same virtual instant forever.
func reuseDelay(penalty float64) time.Duration {
	halfLives := math.Log2(penalty / reuseAt)
	d := time.Duration(halfLives * float64(halfLife))
	if d < time.Second {
		d = time.Second
	}
	return d
}

// reuseCheck releases a suppressed pair once its penalty has decayed.
func (s *Speaker) reuseCheck(k dampKey) {
	st := s.damp[k]
	if st == nil || !st.suppressed {
		return
	}
	if p := st.decayedPenalty(s.e.clk.Now()); p > reuseAt {
		// Not yet (another flap bumped it); re-arm.
		s.e.schedReuse(s, k, reuseDelay(p))
		return
	}
	st.suppressed = false
	if s.decide(k.id) {
		s.markAllPending(k.id)
	}
}

// Suppressed reports whether the route from neighbor for prefix is
// currently dampened at this speaker.
func (s *Speaker) Suppressed(from topo.ASN, prefix netip.Prefix) bool {
	id, ok := s.e.prefixes.lookup(prefix)
	return ok && s.suppressed(from, id)
}

func (s *Speaker) suppressed(from topo.ASN, id prefixID) bool {
	st := s.damp[dampKey{from: from, id: id}]
	return st != nil && st.suppressed
}

// Penalty returns the current decayed penalty for the pair (0 if none).
func (s *Speaker) Penalty(from topo.ASN, prefix netip.Prefix) float64 {
	id, _ := s.e.prefixes.lookup(prefix)
	st := s.damp[dampKey{from: from, id: id}]
	if st == nil {
		return 0
	}
	return st.decayedPenalty(s.e.clk.Now())
}
