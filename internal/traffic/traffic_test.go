package traffic

import (
	"fmt"
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
func providerOf(t testing.TB, r *rig, from topo.ASN, addr netip.Addr) topo.ASN {
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

// TestGeneratorDeterminism: two runs of one rig give equal epoch reports and
// equal, non-empty journals, so no host-dependent value reaches the epoch
// record.
func TestGeneratorDeterminism(t *testing.T) {
	var runs [2][]EpochReport
	var events [2][]obs.Event
	for i := range runs {
		r := newRig(t)
		j := obs.NewJournal(0)
		g, err := New(Deps{Top: r.res.Top, Clk: r.clk, Plane: r.plane, Journal: j}, popConfig(r))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = runEpochs(t, r, g, (*Generator).RunEpoch)
		events[i] = j.Events()
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", runs[0], runs[1])
	}
	if len(events[0]) == 0 || !reflect.DeepEqual(events[0], events[1]) {
		t.Fatalf("journals of two identical runs differ:\n%+v\n%+v", events[0], events[1])
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

	// Vantages are not bounded: 2^16+1 of them make a valid population.
	cfg := base
	cfg.Dests = base.Dests[:1]
	cfg.Vantages = make([]topo.ASN, 1<<16+1)
	for i := range cfg.Vantages {
		cfg.Vantages[i] = r.res.Stubs[i%4]
	}
	g, err := New(Deps{Top: r.res.Top, Clk: r.clk, Plane: r.plane}, cfg)
	if err != nil {
		t.Fatalf("%d vantages: %v", len(cfg.Vantages), err)
	}
	if rep := g.RunEpoch(); rep.Flows != int64(cfg.Flows) {
		t.Fatalf("%d vantages: epoch covered %d of %d flows", len(cfg.Vantages), rep.Flows, cfg.Flows)
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
			d.churn(g.cfg.Churn)
			for vi, n := range d.counts {
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

// refRegroup is the per-flow churn counts replaced, kept as the law they
// must follow: one draw per flow, and a flow that departs (probability p)
// is replaced by an arrival behind a uniformly drawn vantage. dep and arr
// accumulate the departures and arrivals per vantage.
func refRegroup(rng *stream, flows []uint16, p float64, dep, arr []int64) {
	for i, v := range flows {
		if float64(rng.next()>>11)/(1<<53) < p {
			w := uint16(rng.next() % uint64(len(dep)))
			dep[v]++
			arr[w]++
			flows[i] = w
		}
	}
}

// invOdd returns the inverse of an odd m modulo 2^64 (Newton's iteration;
// each step doubles the correct low bits, from 3).
func invOdd(m uint64) uint64 {
	x := m
	for range 5 {
		x *= 2 - m*x
	}
	return x
}

// drawsBetween counts the values a stream produced between two of its
// states: each draw adds SplitMix64's odd increment to the state.
func drawsBetween(before, after stream) uint64 {
	return (after.state - before.state) * invOdd(0x9E3779B97F4A7C15)
}

// streamYielding returns a stream whose next draw is z, by running
// SplitMix64's output mix backwards.
func streamYielding(z uint64) stream {
	unshift := func(y uint64, k uint) uint64 {
		x := y
		for range 64/k + 1 {
			x = y ^ x>>k
		}
		return x
	}
	x := unshift(z, 31) * invOdd(0x94D049BB133111EB)
	x = unshift(x, 27) * invOdd(0xBF58476D1CE4E5B9)
	return stream{state: unshift(x, 30) - 0x9E3779B97F4A7C15}
}

// wantDraws is the churn's cost identity: per non-empty vantage one draw
// per departure and one past its count, then one per arrival; Churn = 1
// skips nothing, and Churn = 0 draws nothing.
func wantDraws(before []int64, departed int64, p float64) uint64 {
	switch {
	case p == 0:
		return 0
	case p == 1:
		return uint64(departed)
	}
	nonEmpty := 0
	for _, c := range before {
		if c > 0 {
			nonEmpty++
		}
	}
	return uint64(2*departed) + uint64(nonEmpty)
}

// churnStep runs d.churn(p) and checks what every epoch keeps: the
// population's size, no negative count, and the draw identity. It returns
// the epoch's departures and arrivals per vantage; departures are read off
// a clone's depart, which consumes the stream as churn's first half does.
func churnStep(t testing.TB, d *destState, p float64) (dep, arr []int64) {
	t.Helper()
	before, rng := slices.Clone(d.counts), d.rng
	kept := slices.Clone(before)
	var departed int64
	if p > 0 {
		probe := destState{rng: d.rng, counts: kept}
		departed = probe.depart(p)
	}
	d.churn(p)

	dep, arr = make([]int64, len(before)), make([]int64, len(before))
	var total, was, arrived int64
	for v, c := range d.counts {
		dep[v], arr[v] = before[v]-kept[v], c-kept[v]
		if c < 0 || dep[v] < 0 || dep[v] > before[v] || arr[v] < 0 {
			t.Fatalf("churn %g: vantage %d went %d → %d with %d departures", p, v, before[v], c, dep[v])
		}
		total, was, arrived = total+c, was+before[v], arrived+arr[v]
	}
	if total != was || arrived != departed {
		t.Fatalf("churn %g: population %d → %d, %d departures, %d arrivals", p, was, total, departed, arrived)
	}
	if got, want := drawsBetween(rng, d.rng), wantDraws(before, departed, p); got != want {
		t.Fatalf("churn %g over %v: %d draws for %d departures, want %d", p, before, got, departed, want)
	}
	return dep, arr
}

// lawStats accumulates one churn law's per-vantage departures and
// arrivals over many epochs.
type lawStats struct {
	dep, mean, varSum, sq, arr []float64 // Σ D_v, Σ c_v·p, Σ c_v·p(1−p), Σ (D_v − c_v·p)², Σ A_v
}

func newLawStats(nv int) *lawStats {
	return &lawStats{make([]float64, nv), make([]float64, nv), make([]float64, nv), make([]float64, nv), make([]float64, nv)}
}

func (s *lawStats) add(before, dep, arr []int64, p float64) {
	for v, c := range before {
		m := float64(c) * p
		s.dep[v] += float64(dep[v])
		s.mean[v] += m
		s.varSum[v] += m * (1 - p)
		s.sq[v] += (float64(dep[v]) - m) * (float64(dep[v]) - m)
		s.arr[v] += float64(arr[v])
	}
}

// check holds the departures to Binomial(c_v, p) — mean within 4σ,
// variance within [0.8, 1.25] of c_v·p(1−p) — and the arrivals to a
// uniform draw over seven vantages (χ² with 6 degrees of freedom below its
// 99.9 % point).
func (s *lawStats) check(t *testing.T, who string) {
	t.Helper()
	const chi2Crit = 22.458
	var arrived float64
	for v := range s.dep {
		if d := math.Abs(s.dep[v] - s.mean[v]); d > 4*math.Sqrt(s.varSum[v]) {
			t.Errorf("%s: vantage %d: %.0f departures, want %.1f ± 4×%.1f", who, v, s.dep[v], s.mean[v], math.Sqrt(s.varSum[v]))
		}
		if s.varSum[v] > 0 {
			if r := s.sq[v] / s.varSum[v]; r < 0.8 || r > 1.25 {
				t.Errorf("%s: vantage %d: departure variance %.3f× the binomial's", who, v, r)
			}
		}
		arrived += s.arr[v]
	}
	exp := arrived / float64(len(s.arr))
	chi2 := 0.0
	for _, a := range s.arr {
		chi2 += (a - exp) * (a - exp) / exp
	}
	if chi2 > chi2Crit {
		t.Errorf("%s: arrivals %v are not uniform: χ² = %.2f > %.2f", who, s.arr, chi2, chi2Crit)
	}
}

// TestChurnMatchesPerFlowLaw holds the count churn to refRegroup, the
// per-flow churn it replaced, from the same skewed start (one vantage
// empty) over 2 000 chained epochs at three churn rates: both must show
// binomial departures per vantage around c·p, uniform arrivals, and the
// same mean departures per epoch, N·p.
func TestChurnMatchesPerFlowLaw(t *testing.T) {
	start := []int64{0, 3, 40, 500, 1200, 2500, 5757}
	const flows, epochs = 10_000, 2000
	for _, p := range []float64{0.02, 0.5, 1} {
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			d := destState{rng: stream{state: 7}, counts: slices.Clone(start)}
			ref, refFlows := stream{state: 7}, make([]uint16, 0, flows)
			for v, c := range start {
				for range c {
					refFlows = append(refFlows, uint16(v))
				}
			}
			got, want := newLawStats(len(start)), newLawStats(len(start))
			for range epochs {
				before := slices.Clone(d.counts)
				dep, arr := churnStep(t, &d, p)
				got.add(before, dep, arr, p)

				refBefore := make([]int64, len(start))
				for _, v := range refFlows {
					refBefore[v]++
				}
				refDep, refArr := make([]int64, len(start)), make([]int64, len(start))
				refRegroup(&ref, refFlows, p, refDep, refArr)
				want.add(refBefore, refDep, refArr, p)
			}
			got.check(t, "counts")
			want.check(t, "per-flow reference")

			var dGot, dWant float64
			for v := range start {
				dGot += got.dep[v]
				dWant += want.dep[v]
			}
			sigma := math.Sqrt(2 * flows * epochs * p * (1 - p))
			if math.Abs(dGot-dWant) > 4*sigma {
				t.Errorf("mean departures per epoch: counts %.2f, per-flow %.2f, N·p = %.0f (σ of the gap %.2f)",
					dGot/epochs, dWant/epochs, flows*p, sigma/epochs)
			}
		})
	}
}

// TestChurnDrawsPerEpoch pins the churn's cost through RunEpoch: each
// destination's stream advances by exactly wantDraws per epoch — one
// churn per destination per epoch, per departing flow, not per flow — and
// without churn neither the streams nor the counts move.
func TestChurnDrawsPerEpoch(t *testing.T) {
	r := newRig(t)
	for _, p := range []float64{0, 0.05, 0.5, 1} {
		cfg := popConfig(r)
		cfg.Churn = p
		g, err := New(Deps{Top: r.res.Top, Clk: r.clk, Plane: r.plane}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			var want []uint64
			var before []destState
			for _, d := range g.dests {
				probe := destState{rng: d.rng, counts: slices.Clone(d.counts)}
				var departed int64
				if p > 0 {
					departed = probe.depart(p)
				}
				want = append(want, wantDraws(d.counts, departed, p))
				before = append(before, destState{rng: d.rng, counts: slices.Clone(d.counts)})
			}
			r.clk.RunFor(g.Epoch())
			g.RunEpoch()
			for i, d := range g.dests {
				if got := drawsBetween(before[i].rng, d.rng); got != want[i] {
					t.Fatalf("churn %g, destination %d: epoch drew %d values, want %d", p, i, got, want[i])
				}
				if p == 0 && !slices.Equal(d.counts, before[i].counts) {
					t.Fatalf("no churn, destination %d: counts moved %v → %v", i, before[i].counts, d.counts)
				}
			}
		}
	}
}

// TestChurnEdgeProbabilities: churn rates at the ends of (0, 1) and the
// extreme draws U = 1 and U = 2^-53 keep every count in range and the draw
// identity exact. U = 1 makes ln U = 0, so the first flow departs whatever
// p is; with ln(1−p) computed as ln of a rounded 1−p that would be 0/0.
func TestChurnEdgeProbabilities(t *testing.T) {
	for _, p := range []float64{5e-324, 1e-300, 1 - 0x1p-53} {
		counts := []int64{0, 1, 2, 1000}
		if p < 0.5 {
			counts = append(counts, 1<<40)
		}
		for _, z := range []uint64{math.MaxUint64, 0} { // U = 1, U = 2^-53
			for v, c := range counts {
				if c == 0 {
					continue
				}
				rng := streamYielding(z)
				if probe := rng; probe.next() != z {
					t.Fatalf("streamYielding(%#x) yields something else", z)
				}
				d := destState{rng: rng, counts: make([]int64, len(counts))}
				d.counts[v] = c
				dep, _ := churnStep(t, &d, p)
				if z == math.MaxUint64 && dep[v] == 0 {
					t.Errorf("churn %g, %d flows: U = 1 must make the first flow depart", p, c)
				}
			}
		}
		d := destState{rng: stream{state: 3}, counts: slices.Clone(counts)}
		for range 50 {
			churnStep(t, &d, p)
		}
	}
}

// FuzzChurn drives churn with any seed, three counts up to 2^31 and any
// churn rate in [0, 1] (the input's bits taken modulo the bits of 1.0, so
// subnormals, 0 and 1 are all reachable), holding every epoch to churnStep's
// checks. Inputs expecting more than 2^16 departures are skipped to keep
// each run short.
func FuzzChurn(f *testing.F) {
	f.Add(uint64(1), uint32(0), uint32(1), uint32(1<<31), math.Float64bits(5e-324))
	f.Add(uint64(2), uint32(5), uint32(17), uint32(3), math.Float64bits(1))
	f.Add(uint64(3), uint32(9), uint32(0), uint32(100), math.Float64bits(1-0x1p-53))
	f.Add(uint64(4), uint32(1000), uint32(2000), uint32(3000), math.Float64bits(0.02))
	f.Add(uint64(5), uint32(7), uint32(7), uint32(7), uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64, a, b, c uint32, pbits uint64) {
		p := math.Float64frombits(pbits % (math.Float64bits(1) + 1))
		counts := []int64{int64(a) % (1<<31 + 1), int64(b) % (1<<31 + 1), int64(c) % (1<<31 + 1)}
		if float64(counts[0]+counts[1]+counts[2])*p > 1<<16 {
			t.Skip("too many departures for a fuzz run")
		}
		d := destState{rng: stream{state: seed}, counts: counts}
		for range 3 {
			churnStep(t, &d, p)
		}
	})
}

// benchEpochs times steady-state epochs shaped like the repository
// benchmark's traffic workload — 150k flows behind 8 vantages toward 4
// weighted destinations, churn 0.02 — after install has set up the rig's
// rules, and hands every report to check.
func benchEpochs(b *testing.B, install func(*rig, []Dest), check func(EpochReport)) {
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
	install(r, dests)
	g.RunEpoch() // warm the walk cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		check(g.RunEpoch())
	}
}

// BenchmarkRunEpoch measures a clean epoch. It allocates nothing.
func BenchmarkRunEpoch(b *testing.B) {
	benchEpochs(b, func(*rig, []Dest) {}, func(rep EpochReport) {
		if rep.Lost != 0 {
			b.Fatalf("clean epoch lost %d flows", rep.Lost)
		}
	})
}

// BenchmarkRunEpochLossy measures an epoch with a LossyAS of 0.3 at the last
// transit AS toward each of two destinations, where every packet across it
// draws its own fate: one coin per packet per rule on its walk, where a clean
// epoch answers each flow group with one cached walk.
func BenchmarkRunEpochLossy(b *testing.B) {
	benchEpochs(b, func(r *rig, dests []Dest) {
		at := []topo.ASN{providerOf(b, r, r.res.Stubs[0], dests[0].Addr), providerOf(b, r, r.res.Stubs[0], dests[1].Addr)}
		for i, asn := range at {
			r.plane.AddFailure(dataplane.LossyAS(asn, 0.3, uint64(i+1)))
		}
	}, func(rep EpochReport) {
		if rep.Lost == 0 {
			b.Fatal("lossy epoch lost nothing")
		}
	})
}
