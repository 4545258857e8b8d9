package bgp

import (
	"lifeguard/internal/topo"
)

// Actionable communities (§2.3). Some transit networks define community
// values customers can attach to influence export — e.g. SAVVIS's
// "do not export this route to peers". The paper found them a promising
// but incomplete remediation primitive: they are not standardized, and
// many networks (Tier-1s in particular) do not propagate community values
// they receive, so a remote AS several hops away usually never sees them.

// CommunityAction is what an AS does when it sees one of its own
// action communities on a route.
type CommunityAction int

// Supported community actions.
const (
	// ActionNoExportToPeers stops the AS from exporting the route to its
	// settlement-free peers (it still goes to customers).
	ActionNoExportToPeers CommunityAction = iota + 1
	// ActionNoExportToProviders stops export to the AS's providers.
	ActionNoExportToProviders
	// ActionNoExport stops all re-export: only the AS itself uses the
	// route.
	ActionNoExport
	// ActionLowerPref makes the AS treat the route as a backup (local
	// preference below everything else), the classic "prepend-for-me"
	// community.
	ActionLowerPref
)

// SetCommunityAction registers an action community at asn: whenever a route
// carrying comm is selected by asn, the action applies to asn's handling of
// it. Actions are meaningful only at the AS that defines them; other ASes
// ignore (but may strip) the value.
func (e *Engine) SetCommunityAction(asn topo.ASN, comm Community, action CommunityAction) {
	s := e.speakers[asn]
	if s.commActions == nil {
		s.commActions = make(map[Community]CommunityAction)
	}
	s.commActions[comm] = action
}

// communityAction returns the action a route's communities trigger at this
// speaker (0 when none).
func (s *Speaker) communityAction(comms []Community) CommunityAction {
	if len(s.commActions) == 0 {
		return 0
	}
	for _, c := range comms {
		if a, ok := s.commActions[c]; ok {
			return a
		}
	}
	return 0
}

// blockExport reports whether an action community on the route forbids
// exporting it to a neighbor with the given relationship.
func blockExport(action CommunityAction, relToNeighbor topo.Rel) bool {
	switch action {
	case ActionNoExport:
		return true
	case ActionNoExportToPeers:
		return relToNeighbor == topo.RelPeer
	case ActionNoExportToProviders:
		return relToNeighbor == topo.RelProvider
	default:
		return false
	}
}
