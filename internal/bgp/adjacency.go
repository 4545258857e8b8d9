package bgp

import (
	"fmt"

	"lifeguard/internal/topo"
)

// Adjacency (session) failures. Unlike the silent data-plane failures
// LIFEGUARD exists for, a failed BGP session is *visible* to the protocol:
// both sides withdraw everything learned over it and the Internet
// re-converges on its own. These produce the short, self-healing outages
// that dominate Fig. 1's event count (while contributing little downtime) —
// exactly the class the §4.2 maturity threshold avoids poisoning.

// SetAdjacencyDown fails or restores the BGP session between adjacent ASes
// a and b. On failure each side drops every route learned from the other
// and stops exporting to it; on restore each side re-advertises its full
// table. The topology relationship itself is untouched.
//
// Note this affects only the control plane; callers modelling a physical
// link cut should also install the matching data-plane rules (the chaos
// linkdown fault does both).
func (e *Engine) SetAdjacencyDown(a, b topo.ASN, down bool) {
	if !e.top.Adjacent(a, b) {
		panic(fmt.Sprintf("bgp: SetAdjacencyDown(%d, %d): not adjacent", a, b))
	}
	e.Speaker(a).setNeighborDown(b, down)
	e.Speaker(b).setNeighborDown(a, down)
}

// AdjacencyDown reports whether the session between a and b is failed.
func (e *Engine) AdjacencyDown(a, b topo.ASN) bool {
	return e.Speaker(a).neighborDown(b)
}

func (s *Speaker) setNeighborDown(n topo.ASN, down bool) {
	i := s.nbrIndex(n)
	st := &s.out[i]
	if st.down == down {
		return
	}
	st.down = down
	if down {
		// Session loss: everything learned from n evaporates at once,
		// and our send state toward n resets (no withdrawals cross a
		// dead session).
		st.pending.reset()
		for k := i; k < len(s.rows); k += len(s.out) {
			s.rows[k].adv = advRecord{}
		}
		// Re-decide in prefix order, not id order, so the resulting update
		// schedule does not depend on when each prefix was first announced.
		for _, id := range s.e.prefixes.order {
			if k := int(id)*len(s.out) + i; k < len(s.rows) && s.rows[k].in != 0 {
				s.rows[k].in, s.rows[k].plen = 0, 0
				if s.decide(id) {
					s.markAllPending(id)
				}
			}
		}
		return
	}
	// Session re-established: advertise the full table to n — every selected
	// route (originated ones included: an origin's route is its best) that
	// export policy lets n have. A speaker with nothing for n only ticks.
	size := s.e.prefixes.size()
	for id := range s.best {
		if s.best[id].kind != locNone && s.hasNews(i, prefixID(id)) {
			st.pending.add(prefixID(id), size)
		}
	}
	if st.pending.n > 0 {
		s.kick(i)
	} else {
		s.idleKick(i)
	}
}
