package lifeguard

import (
	"fmt"

	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
	"lifeguard/internal/traffic"
)

// Re-exported traffic-subsystem types; see internal/traffic for the model.
type (
	// TrafficConfig sizes and seeds a session's flow population.
	TrafficConfig = traffic.Config
	// TrafficDest is one monitored destination in the population's mix.
	TrafficDest = traffic.Dest
	// TrafficGenerator models user flows and accounts user-seconds lost.
	TrafficGenerator = traffic.Generator
	// TrafficEpochReport is one epoch's served/lost accounting.
	TrafficEpochReport = traffic.EpochReport
)

// AttachTraffic wires a flow-population generator to the session's rig and
// tenant: packets forward on the shared data plane, metrics land in the
// session's obs partition, epoch events in the rig journal tagged with the
// tenant. Zero-value config fields default from the session: Vantages to
// the ASes owning the monitored targets (the users sit where the monitor
// watches), Dests to the origin's production address (the traffic
// poisoning repairs), and Flows to 100k. The generator is returned and
// kept on s.Traffic; drive it by alternating Clk.RunFor(gen.Epoch()) with
// gen.RunEpoch().
func (s *Session) AttachTraffic(cfg TrafficConfig) (*TrafficGenerator, error) {
	if len(cfg.Vantages) == 0 {
		for _, t := range s.cfg.Targets {
			as, ok := topo.OwnerOf(t)
			if !ok {
				return nil, fmt.Errorf("lifeguard: monitored target %v has no owning AS to default a vantage from", t)
			}
			cfg.Vantages = append(cfg.Vantages, as)
		}
	}
	if len(cfg.Dests) == 0 {
		cfg.Dests = []TrafficDest{{Addr: ProductionAddr(s.cfg.Origin)}}
	}
	if cfg.Flows == 0 {
		cfg.Flows = 100_000
	}
	gen, err := traffic.New(traffic.Deps{
		Top:     s.Net.Top,
		Clk:     s.Net.Clk,
		Plane:   s.Net.Plane,
		Obs:     s.Obs,
		Journal: s.Net.Journal,
	}, cfg)
	if err != nil {
		return nil, err
	}
	s.Traffic = gen
	if j := s.Net.Journal; j.Enabled() {
		fields := []obs.Field{
			obs.F("flows", gen.Flows()),
			obs.F("vantages", len(cfg.Vantages)),
			obs.F("dests", len(cfg.Dests)),
			obs.F("epoch", gen.Epoch()),
		}
		if s.cfg.Tenant != "" {
			fields = append([]obs.Field{obs.F("tenant", s.cfg.Tenant)}, fields...)
		}
		j.Record(s.Net.Clk.Now(), "traffic", "attach", fields...)
	}
	return gen, nil
}
