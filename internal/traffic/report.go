package traffic

import (
	"time"

	"lifeguard/internal/dataplane"
)

// nreasons sizes the by-reason arrays; index by dataplane.DropReason.
const nreasons = int(dataplane.ForwardLoop) + 1

// EpochReport is a flow population's accounting for one epoch.
type EpochReport struct {
	// Epoch is the zero-based epoch index; VTime the sim-clock time the
	// epoch closed at; Seconds its length.
	Epoch   int
	VTime   time.Duration
	Seconds int64
	// Flows is the flow population this report covers; Served of those
	// exchanged both packets, Lost did not.
	Flows, Served, Lost int64
	// Packets counts data-plane packets injected (both directions).
	Packets int64
	// LostByReason breaks Lost down by the dataplane.DropReason that
	// killed each flow's epoch (the forward drop if the forward leg
	// failed, the reply drop otherwise). The Delivered slot stays zero.
	LostByReason [nreasons]int64
	// UserSecondsLost is Lost × Seconds: the paper's availability metric.
	UserSecondsLost int64
}

// Availability is the fraction of flows served this epoch.
func (r *EpochReport) Availability() float64 {
	if r.Flows == 0 {
		return 1
	}
	return float64(r.Served) / float64(r.Flows)
}

// Summary totals an epoch series.
type Summary struct {
	Epochs int
	// FlowEpochs is the number of (flow, epoch) service opportunities;
	// Served and Lost partition it.
	FlowEpochs, Served, Lost int64
	Packets                  int64
	LostByReason             [nreasons]int64
	UserSecondsLost          int64
}

// Availability is the overall fraction of flow-epochs served.
func (s *Summary) Availability() float64 {
	if s.FlowEpochs == 0 {
		return 1
	}
	return float64(s.Served) / float64(s.FlowEpochs)
}

// Summarize totals eps.
func Summarize(eps []EpochReport) Summary {
	var s Summary
	s.Epochs = len(eps)
	for i := range eps {
		e := &eps[i]
		s.FlowEpochs += e.Flows
		s.Served += e.Served
		s.Lost += e.Lost
		s.Packets += e.Packets
		for r := range e.LostByReason {
			s.LostByReason[r] += e.LostByReason[r]
		}
		s.UserSecondsLost += e.UserSecondsLost
	}
	return s
}
