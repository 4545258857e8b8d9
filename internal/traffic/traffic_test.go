package traffic

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"lifeguard/internal/bgp"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// rig is one converged internetwork with a fresh plane — the fixture every
// test builds identically so runs are comparable.
type rig struct {
	res   *topogen.Result
	clk   *simclock.Scheduler
	eng   *bgp.Engine
	plane *dataplane.Plane
}

func newRig(t testing.TB) *rig {
	t.Helper()
	res, err := topogen.Generate(topogen.Config{Seed: 11, NumTransit: 8, NumStub: 24})
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	eng := bgp.New(res.Top, clk, bgp.Config{Seed: 11})
	for _, asn := range res.Top.ASNs() {
		eng.Originate(asn, topo.Block(asn))
	}
	if !eng.Converge(500_000_000) {
		t.Fatal("no convergence")
	}
	return &rig{res: res, clk: clk, eng: eng, plane: dataplane.New(res.Top, eng)}
}

// popConfig is the shared population: 4 vantages, 6 weighted destinations,
// 10k flows with churn.
func popConfig(r *rig) Config {
	var dests []Dest
	for i, s := range r.res.Stubs[8:14] {
		dests = append(dests, Dest{Addr: topo.ProductionAddr(s), Weight: 1 + i%3})
	}
	return Config{
		Seed:     42,
		Flows:    10_000,
		Vantages: []topo.ASN{r.res.Stubs[0], r.res.Stubs[1], r.res.Stubs[2], r.res.Stubs[3]},
		Dests:    dests,
		Epoch:    10 * time.Second,
		Churn:    0.05,
	}
}

// providerOf returns the last transit AS on the forwarding path from one
// of the population's vantages to addr — a fault there blackholes the
// destination for every vantage routing through it. Pure function of the
// rig, so every shard derives the same fault.
func providerOf(t *testing.T, r *rig, from topo.ASN, addr netip.Addr) topo.ASN {
	t.Helper()
	probe := r.plane.Forward(r.res.Top.AS(from).Routers[0], dataplane.Packet{Dst: addr})
	path := probe.ASPath()
	if !probe.Delivered() || len(path) < 3 {
		t.Fatalf("no transit path to %v: %v (path %v)", addr, probe.Reason, path)
	}
	return path[len(path)-2]
}

// runEpochs plays a fixed timeline against g: three clean epochs, a
// unidirectional blackhole toward the first destination for three epochs,
// then repair and three more. Shards replaying this against their own rigs
// see identical routing state at every epoch.
func runEpochs(t *testing.T, r *rig, g *Generator) []EpochReport {
	dst := topo.ProductionAddr(r.res.Stubs[8])
	fault := providerOf(t, r, r.res.Stubs[0], dst)
	var eps []EpochReport
	step := func(n int) {
		for i := 0; i < n; i++ {
			r.clk.RunFor(g.Epoch())
			eps = append(eps, g.RunEpoch())
		}
	}
	step(3)
	fid := r.plane.AddFailure(dataplane.BlackholeASTowards(
		fault, topo.ProductionPrefix(r.res.Stubs[8])))
	step(3)
	r.plane.RemoveFailure(fid)
	step(3)
	return eps
}

func TestGeneratorDeterminism(t *testing.T) {
	var runs [2][]EpochReport
	for i := range runs {
		r := newRig(t)
		g, err := New(Deps{Top: r.res.Top, Clk: r.clk, Plane: r.plane}, popConfig(r))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = runEpochs(t, r, g)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", runs[0], runs[1])
	}
}

// TestShardMergeIdentity is the sharding contract: three shards, each on
// its own identical rig, merge to the exact report series of an unsharded
// run — the property the runner-parallel experiment relies on.
func TestShardMergeIdentity(t *testing.T) {
	r := newRig(t)
	g, err := New(Deps{Top: r.res.Top, Clk: r.clk, Plane: r.plane}, popConfig(r))
	if err != nil {
		t.Fatal(err)
	}
	whole := runEpochs(t, r, g)

	var parts [][]EpochReport
	total := 0
	for shard := 0; shard < 3; shard++ {
		sr := newRig(t)
		cfg := popConfig(sr)
		cfg.ShardIndex, cfg.ShardCount = shard, 3
		sg, err := New(Deps{Top: sr.res.Top, Clk: sr.clk, Plane: sr.plane}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		total += sg.Flows()
		parts = append(parts, runEpochs(t, sr, sg))
	}
	if total != g.Flows() {
		t.Fatalf("shards model %d flows, whole population is %d", total, g.Flows())
	}
	merged, err := MergeEpochs(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, whole) {
		t.Fatalf("sharded merge diverged from unsharded run:\nmerged: %+v\nwhole:  %+v", merged, whole)
	}
}

// TestOutageAccounting checks the shape of the numbers: full availability
// before the fault, blackhole-attributed loss during it (forward leg), and
// recovery after repair — plus a reverse-path fault that forward delivery
// alone would miss.
func TestOutageAccounting(t *testing.T) {
	r := newRig(t)
	cfg := popConfig(r)
	g, err := New(Deps{Top: r.res.Top, Clk: r.clk, Plane: r.plane}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps := runEpochs(t, r, g)
	if len(eps) != 9 {
		t.Fatalf("expected 9 epochs, got %d", len(eps))
	}
	for i := 0; i < 3; i++ {
		if eps[i].Lost != 0 || eps[i].Availability() != 1 {
			t.Fatalf("pre-fault epoch %d lost %d flows", i, eps[i].Lost)
		}
	}
	during := Summarize(eps[3:6])
	if during.Lost == 0 {
		t.Fatal("fault epochs lost no flows — the blackhole missed the population")
	}
	if during.LostByReason[dataplane.Blackhole] != during.Lost {
		t.Fatalf("loss not attributed to the blackhole: %+v", during.LostByReason)
	}
	if want := during.Lost * 10; during.UserSecondsLost != want {
		t.Fatalf("user-seconds lost = %d, want lost×epoch = %d", during.UserSecondsLost, want)
	}
	for i := 6; i < 9; i++ {
		if eps[i].Lost != 0 {
			t.Fatalf("post-repair epoch %d still lost %d flows", i, eps[i].Lost)
		}
	}

	// Reverse-path failure: drop replies headed back to vantage 0. The
	// forward leg still delivers, so any loss here is reply-leg loss.
	revFault := providerOf(t, r, r.res.Stubs[8], topo.ProductionAddr(r.res.Stubs[0]))
	r.plane.AddFailure(dataplane.BlackholeASTowards(
		revFault, topo.ProductionPrefix(r.res.Stubs[0])))
	r.clk.RunFor(g.Epoch())
	rev := g.RunEpoch()
	if rev.Lost == 0 {
		t.Fatal("reverse-path blackhole cost nothing — reply leg not accounted")
	}
	if rev.LostByReason[dataplane.Blackhole] != rev.Lost {
		t.Fatalf("reverse-path loss misattributed: %+v", rev.LostByReason)
	}
}

// TestGeneratorObsAndJournal checks the metric and journal surface: epoch
// events recorded with the traffic subsystem tag, counters advancing.
func TestGeneratorObsAndJournal(t *testing.T) {
	r := newRig(t)
	reg := obs.New()
	j := obs.NewJournal(64)
	g, err := New(Deps{Top: r.res.Top, Clk: r.clk, Plane: r.plane, Obs: reg, Journal: j}, popConfig(r))
	if err != nil {
		t.Fatal(err)
	}
	r.clk.RunFor(g.Epoch())
	rep := g.RunEpoch()
	if rep.Flows != int64(g.Flows()) {
		t.Fatalf("epoch covered %d flows, population is %d", rep.Flows, g.Flows())
	}

	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"lifeguard_traffic_epochs_total 1",
		"lifeguard_traffic_flow_epochs_served_total",
		"lifeguard_traffic_packets_total",
		`lifeguard_traffic_user_seconds_lost_total{reason="blackhole"}`,
		"lifeguard_traffic_active_flows 10000",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}

	evs := j.Events()
	found := false
	for _, ev := range evs {
		if ev.Subsystem == "traffic" && ev.Kind == "epoch" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no traffic/epoch journal event in %d events", len(evs))
	}
}

func TestApportion(t *testing.T) {
	dests := []Dest{{Weight: 3}, {Weight: 1}, {Weight: 1}, {}}
	counts := apportion(1000, dests)
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 1000 {
		t.Fatalf("apportion dropped flows: %v sums to %d", counts, sum)
	}
	if counts[0] != 500 {
		t.Fatalf("weight-3 destination got %d of 1000 (weights 3:1:1:1)", counts[0])
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t)
	base := popConfig(r)
	for name, mut := range map[string]func(*Config){
		"zero flows":       func(c *Config) { c.Flows = 0 },
		"no vantages":      func(c *Config) { c.Vantages = nil },
		"no dests":         func(c *Config) { c.Dests = nil },
		"fractional epoch": func(c *Config) { c.Epoch = 1500 * time.Millisecond },
		"bad churn":        func(c *Config) { c.Churn = 1.5 },
		"bad shard":        func(c *Config) { c.ShardIndex = 4; c.ShardCount = 4 },
	} {
		cfg := base
		mut(&cfg)
		if _, err := New(Deps{Top: r.res.Top, Clk: r.clk, Plane: r.plane}, cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", name)
		}
	}
}
