package traffic

import (
	"math"
	"net/netip"
	"reflect"
	"slices"
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
// rig, so twin rigs derive the same fault.
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
// then repair and three more. Twin rigs replaying this see identical
// routing state at every epoch. Each epoch is closed by
// epoch(g): (*Generator).RunEpoch, or a reference to hold it to.
func runEpochs(t *testing.T, r *rig, g *Generator, epoch func(*Generator) EpochReport) []EpochReport {
	dst := topo.ProductionAddr(r.res.Stubs[8])
	fault := providerOf(t, r, r.res.Stubs[0], dst)
	var eps []EpochReport
	step := func(n int) {
		for i := 0; i < n; i++ {
			r.clk.RunFor(g.Epoch())
			eps = append(eps, epoch(g))
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
		runs[i] = runEpochs(t, r, g, (*Generator).RunEpoch)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", runs[0], runs[1])
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
	eps := runEpochs(t, r, g, (*Generator).RunEpoch)
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
		"NaN churn":        func(c *Config) { c.Churn = math.NaN() },
		"negative weight":  func(c *Config) { c.Dests[1].Weight = -1 },
	} {
		cfg := base
		cfg.Dests = slices.Clone(base.Dests)
		mut(&cfg)
		if _, err := New(Deps{Top: r.res.Top, Clk: r.clk, Plane: r.plane}, cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", name)
		}
	}
}

// refEpoch is RunEpoch sent one packet at a time: every flow of a group
// sends its request through Plane.Forward, then every flow whose request
// arrived sends its reply — the per-packet semantics RunEpoch's runs keep.
// The churn is RunEpoch's own.
func refEpoch(r *rig) func(*Generator) EpochReport {
	return func(g *Generator) EpochReport {
		rep := EpochReport{Epoch: g.epoch, VTime: g.clk.Now(), Seconds: int64(g.Epoch() / time.Second)}
		for di := range g.dests {
			d := &g.dests[di]
			dst := g.cfg.Dests[di].Addr
			owner, _ := topo.OwnerOf(dst)
			g.regroup(d)
			for vi, n := range g.counts {
				v := g.cfg.Vantages[vi]
				src := topo.ProductionAddr(v)
				delivered := int64(0)
				for range n {
					res := r.plane.Forward(r.res.Top.AS(v).Routers[0], dataplane.Packet{Src: src, Dst: dst})
					if res.Delivered() {
						delivered++
					} else {
						rep.LostByReason[res.Reason]++
					}
				}
				for range delivered {
					res := r.plane.Forward(r.res.Top.AS(owner).Routers[0], dataplane.Packet{Src: dst, Dst: src})
					if res.Delivered() {
						rep.Served++
					} else {
						rep.LostByReason[res.Reason]++
					}
				}
				rep.Flows += n
				rep.Packets += n + delivered
			}
		}
		rep.Lost = rep.Flows - rep.Served
		rep.UserSecondsLost = rep.Lost * rep.Seconds
		g.epoch++
		return rep
	}
}

// TestRunEpochMatchesPerPacket holds RunEpoch, which sends each flow group
// as two runs, to refEpoch on a twin rig: runEpochs' timeline, an epoch
// under a reverse-path blackhole, and two under a lossy rule on the
// transit path, where every packet draws its own fate. Reports and the
// data plane's counters must be identical.
func TestRunEpochMatchesPerPacket(t *testing.T) {
	var (
		eps  [2][]EpochReport
		snap [2]string
	)
	for i, ref := range []bool{false, true} {
		r := newRig(t)
		reg := obs.New()
		r.plane.Instrument(reg)
		g, err := New(Deps{Top: r.res.Top, Clk: r.clk, Plane: r.plane}, popConfig(r))
		if err != nil {
			t.Fatal(err)
		}
		run := (*Generator).RunEpoch
		if ref {
			run = refEpoch(r)
		}
		eps[i] = runEpochs(t, r, g, run)
		step := func() {
			r.clk.RunFor(g.Epoch())
			eps[i] = append(eps[i], run(g))
		}

		rev := r.plane.AddFailure(dataplane.BlackholeASTowards(
			providerOf(t, r, r.res.Stubs[8], topo.ProductionAddr(r.res.Stubs[0])),
			topo.ProductionPrefix(r.res.Stubs[0])))
		step()
		r.plane.RemoveFailure(rev)
		r.plane.AddFailure(dataplane.LossyAS(
			providerOf(t, r, r.res.Stubs[0], topo.ProductionAddr(r.res.Stubs[8])), 0.3, 5))
		step()
		step()

		var b strings.Builder
		if err := reg.Snapshot().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		snap[i] = b.String()
	}
	if !reflect.DeepEqual(eps[0], eps[1]) {
		t.Fatalf("runs and single packets diverged:\nruns:   %+v\nsingle: %+v", eps[0], eps[1])
	}
	if snap[0] != snap[1] {
		t.Fatalf("data plane counters diverged:\nruns:\n%s\nsingle:\n%s", snap[0], snap[1])
	}
	n := len(eps[0])
	for _, e := range []EpochReport{eps[0][n-3], eps[0][n-2], eps[0][n-1]} {
		if e.Lost == 0 || e.Served == 0 {
			t.Fatalf("epoch %d lost %d of %d flows: the fault epochs must lose some and serve some", e.Epoch, e.Lost, e.Flows)
		}
	}
}

// BenchmarkRunEpoch measures one epoch shaped like the repository
// benchmark's traffic workload: 150k flows behind 8 vantages toward 4
// weighted destinations, churn 0.02. A steady-state epoch allocates
// nothing.
func BenchmarkRunEpoch(b *testing.B) {
	r := newRig(b)
	var dests []Dest
	for i, s := range r.res.Stubs[8:12] {
		dests = append(dests, Dest{Addr: topo.ProductionAddr(s), Weight: 1 + i%3})
	}
	g, err := New(Deps{Top: r.res.Top, Clk: r.clk, Plane: r.plane}, Config{
		Seed:     1,
		Flows:    150_000,
		Vantages: r.res.Stubs[:8],
		Dests:    dests,
		Epoch:    30 * time.Second,
		Churn:    0.02,
	})
	if err != nil {
		b.Fatal(err)
	}
	g.RunEpoch() // warm the walk cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := g.RunEpoch(); rep.Lost != 0 {
			b.Fatalf("clean epoch lost %d flows", rep.Lost)
		}
	}
}
