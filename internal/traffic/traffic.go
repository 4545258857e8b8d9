// Package traffic models millions of concurrent user flows crossing the
// simulated internetwork, so outages and repairs can be scored the way the
// LIFEGUARD paper frames them: not "when did probes converge" but "how many
// user-seconds of connectivity were lost".
//
// The model is a constant-size flow population behind a set of vantage
// ASes. Every flow targets one monitored destination address and, each
// sim-clock epoch, exchanges one forward packet (vantage production address
// -> destination) and — if that is delivered — one reply (destination ->
// vantage). A flow is served for the epoch only when both directions
// deliver; otherwise the epoch's seconds are charged to the drop reason
// that killed it. Reply-direction drops are first-class because LIFEGUARD's
// core observation is that reverse-path failures are both common and
// invisible to forward-only probing.
//
// Determinism. All randomness (initial vantage assignment and per-epoch
// churn) comes from one SplitMix64 stream per destination, seeded from
// Config.Seed and the destination's index in Config.Dests, so two
// generators with equal Config over identical rigs produce identical
// reports. New draws one value per flow to place it behind a vantage. An
// epoch's churn then draws per departing flow, not per flow: D departures
// and the vantages that held flows cost 2·D + (non-empty vantages) draws,
// Churn = 1 costs D (every flow leaves, no skipping), Churn = 0 none.
// A generator models the whole population of its world: an experiment
// that wants parallelism runs independent worlds, never slices of one.
//
// Allocation discipline. A flow's fate depends only on its header, so the
// population is one count per (destination, vantage); there is no
// per-flow state. A flow group — the flows of one (destination, vantage)
// — is one dataplane.Flow per direction, held for the generator's life and
// asked for its whole group at once, so steady-state epochs allocate
// nothing.
package traffic

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"lifeguard/internal/dataplane"
	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
)

// Dest is one monitored destination in the flow population's mix.
type Dest struct {
	// Addr is the user-facing address flows exchange packets with,
	// typically topo.ProductionAddr of the monitored AS.
	Addr netip.Addr
	// Weight is the destination's relative share of the flow population.
	// Zero means 1; negative is an error.
	Weight int
}

// Config sizes and seeds a flow population.
type Config struct {
	// Seed drives every random choice. Two generators with equal Config
	// produce byte-identical epoch reports.
	Seed uint64
	// Flows is the total modelled flow count across all destinations.
	Flows int
	// Vantages are the ASes the user populations sit behind. Flows source
	// from each vantage's production address and inject at its hub router.
	Vantages []topo.ASN
	// Dests is the destination mix. Order matters: a destination's index
	// seeds its random stream.
	Dests []Dest
	// Epoch is the accounting interval; every flow exchanges one packet
	// pair per epoch. Must be a whole number of seconds. Zero means 10s.
	Epoch time.Duration
	// Churn is the per-epoch probability that a flow departs and is
	// replaced by a fresh arrival (possibly behind a different vantage).
	Churn float64
}

func (cfg *Config) epoch() time.Duration {
	if cfg.Epoch == 0 {
		return 10 * time.Second
	}
	return cfg.Epoch
}

// Deps wires a Generator to a rig. Obs and Journal may be nil.
type Deps struct {
	Top     *topo.Topology
	Clk     *simclock.Scheduler
	Plane   *dataplane.Plane
	Obs     *obs.Registry
	Journal *obs.Journal
}

// stream is a SplitMix64 sequence; one per destination.
type stream struct{ state uint64 }

func (s *stream) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit returns a uniform float64 in (0, 1], so its logarithm is finite.
func (s *stream) unit() float64 { return float64(s.next()>>11+1) / (1 << 53) }

// destState is one destination's slice of the population.
type destState struct {
	rng    stream
	counts []int64 // flows behind each vantage; the whole population state
	// groups[v] carries the packets of the flows behind vantage v: the
	// request from the vantage's hub, the reply from the destination's.
	groups []flowGroup
}

// churn replaces each flow, independently with probability p, by an
// arrival behind a uniformly drawn vantage, keeping the size constant. On
// counts that law is D_v ~ Binomial(c_v, p) departures from each vantage,
// then D = Σ D_v arrivals, each to a uniform vantage.
func (d *destState) churn(p float64) {
	if p > 0 {
		d.arrive(d.depart(p))
	}
}

// depart removes each vantage's departures and returns how many left. It
// skips from one departing flow to the next: the gap is geometric,
// 1 + ⌊ln U / ln(1−p)⌋ for U in (0, 1], so a vantage costs one draw per
// departure plus the one that overshoots its count.
func (d *destState) depart(p float64) int64 {
	var total int64
	if p == 1 { // every gap would be 1: all leave, and nothing is drawn
		for v, c := range d.counts {
			total += c
			d.counts[v] = 0
		}
		return total
	}
	lq := math.Log1p(-p) // ln(1−p): finite, and nonzero for subnormal p
	rng := d.rng
	for v, c := range d.counts {
		if c == 0 {
			continue
		}
		left, k := c, int64(0) // flows not yet skipped over, departures
		for {
			gap := 1 + math.Floor(math.Log(rng.unit())/lq)
			// Compared as floats: for tiny p the gap overflows to +Inf, and
			// an out-of-range float→int64 conversion is implementation-dependent.
			if !(gap <= float64(left)) {
				break
			}
			left -= int64(gap)
			k++
		}
		d.counts[v] = c - k
		total += k
	}
	d.rng = rng
	return total
}

// arrive places n arrivals, each behind a uniformly drawn vantage.
func (d *destState) arrive(n int64) {
	rng, counts := d.rng, d.counts
	for range n {
		counts[rng.next()%uint64(len(counts))]++
	}
	d.rng = rng
}

// flowGroup holds the two headers every flow of one (destination, vantage)
// sends, the way monitor's pair holds its Pinger.
type flowGroup struct{ req, reply dataplane.Flow }

// Generator owns a world's flow population.
type Generator struct {
	cfg Config
	clk *simclock.Scheduler

	dests []destState // indexed like Config.Dests
	flows int

	epoch int

	obs     generatorObs
	journal *obs.Journal
}

// generatorObs holds the generator's metric handles; all nil-safe, so an
// uninstrumented generator records nothing.
type generatorObs struct {
	epochs  *obs.Counter
	served  *obs.Counter
	lost    *obs.Counter
	packets *obs.Counter
	// userSeconds is indexed by dataplane.DropReason. The Delivered slot
	// stays nil: delivered flows lose no user-seconds.
	userSeconds [int(dataplane.ForwardLoop) + 1]*obs.Counter
	active      *obs.Gauge
}

// New validates cfg and builds the flow population. The population
// is assigned deterministically: destination flow counts by largest
// remainder over the weights, vantages by each destination's own stream.
func New(d Deps, cfg Config) (*Generator, error) {
	if d.Top == nil || d.Clk == nil || d.Plane == nil {
		return nil, fmt.Errorf("traffic: Deps.Top, Clk and Plane are required")
	}
	if cfg.Flows <= 0 {
		return nil, fmt.Errorf("traffic: Flows must be positive, got %d", cfg.Flows)
	}
	if len(cfg.Vantages) == 0 {
		return nil, fmt.Errorf("traffic: need at least one vantage")
	}
	if len(cfg.Dests) == 0 {
		return nil, fmt.Errorf("traffic: need at least one destination")
	}
	if e := cfg.epoch(); e < time.Second || e%time.Second != 0 {
		return nil, fmt.Errorf("traffic: Epoch must be a whole number of seconds, got %v", e)
	}
	if !(cfg.Churn >= 0 && cfg.Churn <= 1) { // NaN fails both
		return nil, fmt.Errorf("traffic: Churn must be in [0,1], got %g", cfg.Churn)
	}
	for i, dst := range cfg.Dests {
		if dst.Weight < 0 {
			return nil, fmt.Errorf("traffic: Dests[%d].Weight must not be negative, got %d", i, dst.Weight)
		}
	}
	g := &Generator{
		cfg:     cfg,
		clk:     d.Clk,
		journal: d.Journal,
	}
	hubs := make([]topo.RouterID, len(cfg.Vantages)) // injection router per vantage
	for i, v := range cfg.Vantages {
		as := d.Top.AS(v)
		if as == nil || len(as.Routers) == 0 {
			return nil, fmt.Errorf("traffic: vantage AS%d not in topology", v)
		}
		hubs[i] = as.Routers[0]
	}

	sizes := apportion(cfg.Flows, cfg.Dests)
	for i, dst := range cfg.Dests {
		owner, ok := topo.OwnerOf(dst.Addr)
		if !ok {
			return nil, fmt.Errorf("traffic: destination %v outside the address plan", dst.Addr)
		}
		as := d.Top.AS(owner)
		if as == nil || len(as.Routers) == 0 {
			return nil, fmt.Errorf("traffic: destination %v owner AS%d not in topology", dst.Addr, owner)
		}
		ds := destState{
			rng:    stream{state: cfg.Seed + uint64(i)*0x9E3779B9},
			counts: make([]int64, len(cfg.Vantages)),
			groups: make([]flowGroup, len(cfg.Vantages)),
		}
		ds.arrive(int64(sizes[i]))
		for vi, v := range cfg.Vantages {
			src := topo.ProductionAddr(v)
			ds.groups[vi] = flowGroup{
				req:   d.Plane.Flow(hubs[vi], src, dst.Addr),
				reply: d.Plane.Flow(as.Routers[0], dst.Addr, src),
			}
		}
		g.flows += sizes[i]
		g.dests = append(g.dests, ds)
	}
	g.Instrument(d.Obs)
	return g, nil
}

// apportion splits total flows over the destinations proportionally to
// their weights, by largest remainder — deterministic and exact.
func apportion(total int, dests []Dest) []int {
	weights := make([]int, len(dests))
	sum := 0
	for i, d := range dests {
		w := d.Weight
		if w == 0 {
			w = 1
		}
		weights[i] = w
		sum += w
	}
	counts := make([]int, len(dests))
	rems := make([]int, len(dests))
	assigned := 0
	for i, w := range weights {
		counts[i] = total * w / sum
		rems[i] = total * w % sum
		assigned += counts[i]
	}
	// Hand the rounding leftovers to destinations in decreasing remainder
	// order, ties broken by index.
	for assigned < total {
		best := 0
		for i, r := range rems {
			if r > rems[best] {
				best = i
			}
		}
		counts[best]++
		rems[best] = -1
		assigned++
	}
	return counts
}

// Instrument registers the generator's metrics on reg. Nil reg is allowed.
func (g *Generator) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	g.obs.epochs = reg.Counter("lifeguard_traffic_epochs_total")
	g.obs.served = reg.Counter("lifeguard_traffic_flow_epochs_served_total")
	g.obs.lost = reg.Counter("lifeguard_traffic_flow_epochs_lost_total")
	g.obs.packets = reg.Counter("lifeguard_traffic_packets_total")
	for r := dataplane.NoRoute; r <= dataplane.ForwardLoop; r++ {
		g.obs.userSeconds[r] = reg.Counter("lifeguard_traffic_user_seconds_lost_total",
			obs.L("reason", r.String()))
	}
	g.obs.active = reg.Gauge("lifeguard_traffic_active_flows")
	g.obs.active.Set(int64(g.flows))
}

// Flows reports the number of flows the generator models.
func (g *Generator) Flows() int { return g.flows }

// Epoch reports the accounting interval.
func (g *Generator) Epoch() time.Duration { return g.cfg.epoch() }

// RunEpoch closes one accounting epoch at the clock's current time: churns
// the population, exchanges every flow's packet pair against the current
// RIB and failure table, and returns the epoch's report. It never advances
// the clock — the caller owns time, typically alternating
// clk.RunFor(Epoch()) with RunEpoch() so routing events interleave with
// accounting.
func (g *Generator) RunEpoch() EpochReport {
	epochSecs := int64(g.cfg.epoch() / time.Second)
	rep := EpochReport{
		Epoch:   g.epoch,
		VTime:   g.clk.Now(),
		Seconds: epochSecs,
	}
	for di := range g.dests {
		d := &g.dests[di]
		d.churn(g.cfg.Churn)
		for vi, n := range d.counts {
			// Forward leg: the group's n requests toward the destination.
			// Reply leg, only for flows whose request arrived: this is where
			// reverse-path failures show up.
			fg := &d.groups[vi]
			req := fg.req.ForwardN(n)
			reply := fg.reply.ForwardN(req[dataplane.Delivered])
			for r := dataplane.NoRoute; r <= dataplane.ForwardLoop; r++ {
				rep.LostByReason[r] += req[r] + reply[r]
			}
			rep.Flows += n
			rep.Served += reply[dataplane.Delivered]
			rep.Packets += n + req[dataplane.Delivered]
		}
	}
	rep.Lost = rep.Flows - rep.Served
	rep.UserSecondsLost = rep.Lost * epochSecs

	g.epoch++
	g.obs.epochs.Inc()
	g.obs.served.Add(rep.Served)
	g.obs.lost.Add(rep.Lost)
	g.obs.packets.Add(rep.Packets)
	for r := dataplane.NoRoute; r <= dataplane.ForwardLoop; r++ {
		g.obs.userSeconds[r].Add(rep.LostByReason[r] * epochSecs)
	}
	if g.journal.Enabled() {
		g.journal.Record(g.clk.Now(), "traffic", "epoch",
			obs.F("epoch", rep.Epoch),
			obs.F("flows", rep.Flows),
			obs.F("served", rep.Served),
			obs.F("lost", rep.Lost),
			obs.F("user_seconds_lost", rep.UserSecondsLost))
	}
	return rep
}
