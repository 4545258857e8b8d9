// Package lifeguard is a reproduction of "LIFEGUARD: Practical Repair of
// Persistent Route Failures" (Katz-Bassett et al., SIGCOMM 2012): a system
// that locates long-lasting partial Internet outages — even asymmetric,
// unidirectional ones — and repairs them by steering traffic around the
// faulty AS with crafted BGP announcements (AS-path poisoning), without the
// faulty network's cooperation.
//
// The package wires together the full stack this repository implements from
// scratch: a deterministic discrete-event BGP internetwork simulator
// (topology, path-vector routing with Gao–Rexford policies, a hop-by-hop
// data plane with silent-failure injection, measurement primitives, a path
// atlas) and the paper's failure-isolation and remediation engines.
//
// Typical use:
//
//	net, _ := lifeguard.GenerateInternet(lifeguard.InternetConfig{Seed: 1})
//	sys := lifeguard.NewSystem(net, lifeguard.Config{
//		Origin: net.Gen.Stubs[0],
//		VPs:    ...,
//		Targets: ...,
//	})
//	sys.Start()
//	net.Clk.RunFor(2 * time.Hour) // virtual time; failures get repaired
package lifeguard

import (
	"fmt"
	"net/netip"

	"lifeguard/internal/bgp"
	"lifeguard/internal/chaos"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/obs"
	"lifeguard/internal/probe"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// Re-exported identifiers so downstream code can name the simulator's core
// types without reaching into internal packages.
type (
	// Addr is an IP address (net/netip.Addr re-exported for convenience).
	Addr = netip.Addr
	// ASN identifies an autonomous system.
	ASN = topo.ASN
	// RouterID identifies a router in a topology.
	RouterID = topo.RouterID
	// Path is an AS-level path, origin last.
	Path = topo.Path
	// Topology is the immutable internetwork under simulation.
	Topology = topo.Topology
	// TopologyBuilder assembles custom topologies.
	TopologyBuilder = topo.Builder
	// InternetConfig parameterizes synthetic Internet generation.
	InternetConfig = topogen.Config
	// FailureRule describes a silent data-plane failure.
	FailureRule = dataplane.Rule
	// FailureID names an injected failure.
	FailureID = dataplane.FailureID
	// BGPConfig tunes protocol dynamics (MRAI, jitter, dampening).
	BGPConfig = bgp.Config
	// ObsRegistry is the deterministic metrics registry (internal/obs).
	ObsRegistry = obs.Registry
	// ObsJournal is the sim-time event journal (internal/obs).
	ObsJournal = obs.Journal
	// OriginConfig controls how an AS announces one of its prefixes
	// (patterns, per-neighbor poisons, withholding, communities).
	OriginConfig = bgp.OriginConfig
	// ChaosScript is a scripted fault timeline (internal/chaos).
	ChaosScript = chaos.Script
	// ChaosStep is one scripted fault or invariant barrier.
	ChaosStep = chaos.Step
	// ChaosFault is one reversible injected failure.
	ChaosFault = chaos.Fault
	// ChaosOptions tunes a chaos run (reach probes, obs).
	ChaosOptions = chaos.Options
	// ChaosReport summarizes a finished chaos run.
	ChaosReport = chaos.Report
	// ChaosViolation is one invariant breach found at a barrier.
	ChaosViolation = chaos.Violation
	// ChaosGenConfig parameterizes the seeded chaos script generator.
	ChaosGenConfig = chaos.GenConfig
	// ChaosReachProbe is a data-plane reachability assertion checked at
	// all-healed chaos barriers.
	ChaosReachProbe = chaos.ReachProbe
	// ChaosFaultDoc documents one fault keyword of the script vocabulary.
	ChaosFaultDoc = chaos.FaultDoc
)

// NewTopologyBuilder returns an empty topology builder.
func NewTopologyBuilder() *TopologyBuilder { return topo.NewBuilder() }

// Address-plan helpers re-exported from the topology layer.
var (
	// ProductionPrefix returns an AS's production /24.
	ProductionPrefix = topo.ProductionPrefix
	// SentinelPrefix returns an AS's sentinel /23.
	SentinelPrefix = topo.SentinelPrefix
	// ProductionAddr returns a host address inside the production prefix.
	ProductionAddr = topo.ProductionAddr
	// SentinelProbeAddr returns a host address in the sentinel's unused half.
	SentinelProbeAddr = topo.SentinelProbeAddr
	// Block returns an AS's /16 address block.
	Block = topo.Block
)

// Chaos subsystem entry points re-exported from internal/chaos.
var (
	// ParseChaosScript reads the text form of a fault timeline.
	ParseChaosScript = chaos.Parse
	// GenerateChaosScript samples a seeded, outage-calibrated timeline
	// for a topology.
	GenerateChaosScript = chaos.GenerateScript
	// ChaosVocabulary enumerates every fault keyword the script parser
	// accepts, sorted, with one-line docs (`lgchaos -list-faults`).
	ChaosVocabulary = chaos.Vocabulary
)

// Failure-rule constructors re-exported from the data plane.
var (
	// BlackholeAS drops all traffic forwarded by an AS.
	BlackholeAS = dataplane.BlackholeAS
	// BlackholeASTowards drops traffic an AS forwards toward a prefix —
	// the canonical unidirectional failure.
	BlackholeASTowards = dataplane.BlackholeASTowards
	// DropASLink drops traffic crossing a directed AS-level link.
	DropASLink = dataplane.DropASLink
	// BlackholeRouter drops all traffic through one router.
	BlackholeRouter = dataplane.BlackholeRouter
)

// Network bundles a simulated internetwork: topology, virtual clock, BGP
// engine, data plane, and prober. Build one with GenerateInternet (synthetic
// Internet) or AssembleNetwork (custom topology).
type Network struct {
	Top    *topo.Topology
	Clk    *simclock.Scheduler
	Eng    *bgp.Engine
	Plane  *dataplane.Plane
	Prober *probe.Prober
	// Gen describes the synthetic Internet's AS roles; nil for custom
	// topologies.
	Gen *topogen.Result
	// Obs is the metrics registry all of the network's subsystems report
	// into; nil when assembly ran uninstrumented.
	Obs *obs.Registry
	// Journal is the sim-time event journal; nil when disabled.
	Journal *obs.Journal
}

// NetworkOptions tunes network assembly.
type NetworkOptions struct {
	Seed int64
	BGP  bgp.Config
	// OriginateBlocks lists the ASes whose /16 blocks are announced at
	// start so their routers are reachable. Empty means every AS — fine
	// for small nets; large experiments should restrict it.
	OriginateBlocks []topo.ASN
	// SkipConverge leaves initial convergence to the caller.
	SkipConverge bool
	// Obs, when non-nil, instruments every subsystem of the assembled
	// network (BGP engine, data plane, prober, and any Session wired over
	// it). Metrics are a pure function of the simulation, so enabling
	// them cannot change behaviour — only add one nil-check branch per
	// instrumented site.
	Obs *obs.Registry
	// Journal, when non-nil, receives sim-time event records from a
	// Session wired over the network.
	Journal *obs.Journal
}

// GenerateInternet builds a synthetic Internet (see topogen) and assembles
// a converged Network over it.
func GenerateInternet(gencfg InternetConfig, opts ...NetworkOptions) (*Network, error) {
	res, err := topogen.Generate(gencfg)
	if err != nil {
		return nil, err
	}
	var o NetworkOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.Seed == 0 {
		o.Seed = gencfg.Seed
	}
	n, err := AssembleNetwork(res.Top, o)
	if err != nil {
		return nil, err
	}
	n.Gen = res
	return n, nil
}

// AssembleNetwork builds the engine, data plane and prober over a finished
// topology, originates the requested blocks, and converges.
func AssembleNetwork(top *topo.Topology, o NetworkOptions) (*Network, error) {
	clk := simclock.New()
	cfg := o.BGP
	if cfg.Seed == 0 {
		cfg.Seed = o.Seed
	}
	if cfg.Obs == nil {
		cfg.Obs = o.Obs
	}
	eng := bgp.New(top, clk, cfg)
	blocks := o.OriginateBlocks
	if len(blocks) == 0 {
		blocks = top.ASNs()
	}
	for _, asn := range blocks {
		eng.Originate(asn, topo.Block(asn))
	}
	if !o.SkipConverge && !eng.Converge(bgp.MaxConvergeSteps) {
		return nil, fmt.Errorf("lifeguard: initial BGP convergence did not complete")
	}
	pl := dataplane.New(top, eng)
	pl.Instrument(o.Obs)
	pr := probe.New(top, pl, clk)
	pr.Instrument(o.Obs)
	return &Network{
		Top: top, Clk: clk, Eng: eng, Plane: pl,
		Prober:  pr,
		Obs:     o.Obs,
		Journal: o.Journal,
	}, nil
}

// Hub returns the hub (first) router of asn.
func (n *Network) Hub(asn ASN) RouterID { return n.Top.AS(asn).Routers[0] }

// RouterAddr returns the address of a router.
func (n *Network) RouterAddr(id RouterID) netip.Addr { return n.Top.Router(id).Addr }

// InjectFailure installs a silent data-plane failure.
func (n *Network) InjectFailure(r FailureRule) FailureID { return n.Plane.AddFailure(r) }

// HealFailure removes an injected failure.
func (n *Network) HealFailure(id FailureID) bool { return n.Plane.RemoveFailure(id) }

// Converge drains the BGP control plane (bounded); it reports success.
func (n *Network) Converge() bool { return n.Eng.Converge(bgp.MaxConvergeSteps) }

// ChaosTarget exposes the network to the chaos fault-injection engine.
func (n *Network) ChaosTarget() *chaos.Target {
	return &chaos.Target{
		Top: n.Top, Clk: n.Clk, Eng: n.Eng, Plane: n.Plane,
		Journal: n.Journal,
	}
}

// RunChaos executes a fault timeline against the network and returns its
// report. Deterministic: the same network seed and script yield the same
// report bytes. See internal/chaos for the script language and invariants.
func (n *Network) RunChaos(s *ChaosScript, opts ChaosOptions) (*ChaosReport, error) {
	r, err := chaos.NewRunner(n.ChaosTarget(), s, opts)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// FailAdjacency cuts the link between adjacent ASes a and b completely:
// the BGP session drops (both sides withdraw, the Internet re-converges —
// a *visible* failure, unlike InjectFailure's silent ones) and the data
// plane stops carrying packets across it in either direction.
func (n *Network) FailAdjacency(a, b ASN) [2]FailureID {
	n.Eng.SetAdjacencyDown(a, b, true)
	return [2]FailureID{
		n.Plane.AddFailure(dataplane.DropASLink(a, b)),
		n.Plane.AddFailure(dataplane.DropASLink(b, a)),
	}
}

// HealAdjacency restores a link cut by FailAdjacency. It verifies the ids
// are live and actually the a–b link-cut pair — the two directed drop rules
// FailAdjacency installed, in either order — and reports false without
// touching anything on a mismatch (no partial heal), consistent with
// HealFailure's contract.
func (n *Network) HealAdjacency(a, b ASN, ids [2]FailureID) bool {
	matches := func(r FailureRule, from, to ASN) bool {
		return r == dataplane.DropASLink(from, to)
	}
	r0, ok0 := n.Plane.Failure(ids[0])
	r1, ok1 := n.Plane.Failure(ids[1])
	if !ok0 || !ok1 {
		return false
	}
	if !(matches(r0, a, b) && matches(r1, b, a)) &&
		!(matches(r0, b, a) && matches(r1, a, b)) {
		return false
	}
	n.Plane.RemoveFailure(ids[0])
	n.Plane.RemoveFailure(ids[1])
	n.Eng.SetAdjacencyDown(a, b, false)
	return true
}
