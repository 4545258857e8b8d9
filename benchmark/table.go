package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"

	"lifeguard"
	"lifeguard/internal/bgp"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topogen"
)

// converge and churn use the bgp layer alone, on one table: 1 000 ASes,
// 200 stub prefixes. converge fills it from empty; churn rewrites it in
// place beside longest-prefix-match reads.
const (
	tableTransit  = 200
	tableStubs    = 795
	tablePrefixes = 125
	churnTargets  = 60 // distinct (origin, poisoned transit) pairs
	churnOpsPerW  = 15 // four windows make one pass over the targets
)

// table is the engine-only world both workloads share.
type table struct {
	e        env
	gen      *topogen.Result
	asns     []lifeguard.ASN
	origins  []lifeguard.ASN
	prefixes []netip.Prefix
	cfg      lifeguard.InternetConfig
	prepend  bool       // baseline announcement is O-O-O, not O
	rng      *rand.Rand // the run's stream: announcement and op order

	clk   *simclock.Scheduler
	eng   *bgp.Engine
	fills int64 // engines built so far; each gets its own timing-jitter stream
}

// newTable generates the data set's topology of transit + stubs (+ 5
// tier-1) ASes and draws the announcing stubs.
func newTable(e env, transit, stubs, prefixes int) (*table, error) {
	cfg := lifeguard.InternetConfig{
		Seed:       datasetSeed,
		NumTransit: e.scaled(transit, 8),
		NumStub:    e.scaled(stubs, 20),
		Large:      true,
	}
	var gen *topogen.Result
	var err error
	e.tr.do("topogen.Generate", func() { gen, err = topogen.Generate(cfg) })
	if err != nil {
		return nil, err
	}
	t := &table{e: e, cfg: cfg, gen: gen, asns: gen.Top.ASNs(), rng: newRNG(e.seed, 3)}
	t.origins = sample(newRNG(datasetSeed, 300), gen.Stubs, e.scaled(prefixes, 5))
	for _, o := range t.origins {
		t.prefixes = append(t.prefixes, lifeguard.Block(o))
	}
	return t, nil
}

// baseline is the announcement a prefix's origin makes when not poisoning.
func (t *table) baseline(o lifeguard.ASN) lifeguard.OriginConfig {
	if t.prepend {
		return lifeguard.OriginConfig{Pattern: lifeguard.Path{o, o, o}}
	}
	return lifeguard.OriginConfig{}
}

// fill builds a fresh engine with the default configuration — whatever
// event loop bgp.New selects by default is the one measured — announces
// every prefix, in seeded order, and converges. Each fill draws its own
// timing jitter, so the simulated statistics average over several
// convergences of the one table rather than repeating a single draw. It
// reports the host-timed part in ws and whether the table is complete.
func (t *table) fill(ws *windowStats) bool {
	t.clk = simclock.New()
	t.fills++
	t.eng = bgp.New(t.gen.Top, t.clk, bgp.Config{Seed: t.e.seed*1_000_003 + t.fills, Obs: t.e.obs})
	order := t.rng.Perm(len(t.origins))
	sw := startWatch(t.e)
	for _, i := range order {
		t.eng.Announce(t.origins[i], t.prefixes[i], t.baseline(t.origins[i]))
	}
	ok := converge(t.e, t.eng, t.clk, ws, sw)
	sw.stop(ws)
	loc, _ := t.eng.RIBSizes()
	return ok && loc == len(t.asns)*len(t.prefixes)
}

// --- converge ---

type convergeWorld struct {
	*table
	want uint64 // digest of the first fill; every later one must match it
}

func buildConverge(e env) (world, error) {
	t, err := newTable(e, tableTransit, tableStubs, tablePrefixes)
	if err != nil {
		return nil, err
	}
	w := &convergeWorld{table: t}
	if warm := w.window(); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up fill did not converge to a complete table")
	}
	return w, nil
}

// window is one fill of the table from empty. Ops are loc-RIB routes
// installed. The previous engine is dropped and collected first, outside
// the timing: a fill starts from a fresh heap, as it would in a new process.
func (w *convergeWorld) window() windowStats {
	var ws windowStats
	w.eng, w.clk = nil, nil
	runtime.GC()

	opID := w.e.tr.beginOp()
	ok := w.fill(&ws)
	w.e.tr.endOp(opID)

	ws.ops = len(w.asns) * len(w.prefixes)
	d := ribDigest(w.eng, w.asns, w.prefixes)
	if w.want == 0 {
		w.want = d
	}
	if !ok || d != w.want {
		ws.failed = ws.ops
	}
	ws.updates = int64(w.eng.TotalUpdatesSent())
	ws.simLatency = []float64{w.clk.Now().Seconds()}
	return ws
}

func (w *convergeWorld) lab() (*labRig, error) { return tableLab(w.table) }

// --- churn ---

type churnTarget struct {
	idx   int // into origins/prefixes
	blame lifeguard.ASN
	want  uint64 // digest of the prefix's routes at baseline
}

type churnWorld struct {
	*table
	targets []churnTarget
	order   []int  // seeded pass over targets, consumed ops at a time
	ops     int    // per window
	base    uint64 // digest of the whole table at baseline
}

func buildChurn(e env) (world, error) {
	t, err := newTable(e, tableTransit, tableStubs, tablePrefixes)
	if err != nil {
		return nil, err
	}
	// Baseline is the prepended O-O-O of the paper's §3.1.1, so that a
	// single poison O-A-O keeps the path length and only A's view changes.
	t.prepend = true
	var ws windowStats
	if !t.fill(&ws) {
		return nil, fmt.Errorf("initial table did not converge completely")
	}
	w := &churnWorld{table: t, ops: e.scaled(churnOpsPerW, 3)}
	w.base = ribDigest(t.eng, t.asns, t.prefixes)

	// Poison targets, part of the data set: per origin, a transit AS that
	// some stub's best path to the origin crosses and that is not the
	// origin's own provider, rotating over the hops so poisons land at
	// every depth. Paths are read off the converged table, whose stable
	// state does not depend on the engine seed.
	rng := newRNG(datasetSeed, 301)
	want := e.scaled(churnTargets, 3)
	for i, o := range t.origins {
		if len(w.targets) == want {
			break
		}
		providers := make(map[lifeguard.ASN]bool)
		for _, p := range t.gen.Top.Providers(o) {
			providers[p] = true
		}
		var hops []lifeguard.ASN
		for _, s := range sample(rng, t.gen.Stubs, 4) {
			for _, h := range t.eng.ASPathTo(s, lifeguard.ProductionAddr(o)) {
				if h != o && h != s && !providers[h] {
					hops = append(hops, h)
				}
			}
		}
		if len(hops) == 0 {
			continue
		}
		w.targets = append(w.targets, churnTarget{
			idx: i, blame: hops[i%len(hops)],
			want: ribDigest(t.eng, t.asns, t.prefixes[i:i+1]),
		})
	}
	if len(w.targets) < want {
		return nil, fmt.Errorf("table offers %d poison targets, need %d", len(w.targets), want)
	}
	if warm := w.window(); warm.failed > 0 {
		return nil, fmt.Errorf("%d of %d warm-up ops failed their checks", warm.failed, warm.ops)
	}
	return w, nil
}

// window is ops poison-and-unpoison cycles, drawn from seeded passes over
// the targets, then (outside the timing) a digest of the whole table
// against the baseline.
func (w *churnWorld) window() windowStats {
	var ws windowStats
	u0 := w.eng.TotalUpdatesSent()
	sw := startWatch(w.e)
	for i := 0; i < w.ops; i++ {
		if i > 0 {
			sw.yield()
		}
		if len(w.order) == 0 {
			w.order = w.rng.Perm(len(w.targets))
		}
		tg := w.targets[w.order[0]]
		w.order = w.order[1:]
		opID := w.e.tr.beginOp()
		t0 := wallNow()
		ok := w.cycle(tg, &ws)
		ws.opWalls = append(ws.opWalls, since(t0))
		w.e.tr.endOp(opID)
		ws.ops++
		if !ok {
			ws.failed++
		}
	}
	sw.stop(&ws)
	ws.updates = int64(w.eng.TotalUpdatesSent() - u0)
	if ribDigest(w.eng, w.asns, w.prefixes) != w.base {
		ws.failed = ws.ops
	}
	return ws
}

// cycle poisons tg.blame on one prefix, converges, reads the prefix from
// every AS; then restores the baseline, converges and reads again.
func (w *churnWorld) cycle(tg churnTarget, ws *windowStats) bool {
	o, pfx := w.origins[tg.idx], w.prefixes[tg.idx]
	addr := lifeguard.ProductionAddr(o)

	t0 := w.clk.Now()
	w.e.tr.do("bgp.Announce[poison]", func() {
		w.eng.Announce(o, pfx, lifeguard.OriginConfig{Pattern: lifeguard.Path{o, tg.blame, o}})
	})
	ok := converge(w.e, w.eng, w.clk, ws, nil)
	ws.simLatency = append(ws.simLatency, (w.clk.Now() - t0).Seconds())
	_, swept := w.sweep(pfx, addr, tg.blame)
	ok = ok && swept

	w.e.tr.do("bgp.Announce[baseline]", func() { w.eng.Announce(o, pfx, w.baseline(o)) })
	ok = converge(w.e, w.eng, w.clk, ws, nil) && ok
	d, swept := w.sweep(pfx, addr, 0)
	return ok && swept && d == tg.want
}

// sweep looks addr up from every AS, checks the LPM answer against the
// exact-prefix loc-RIB entry, and — while avoid is poisoned — that no
// selected path still transits it (it may only appear inside the origin's
// own announced pattern, the last three hops). It returns the digest of the
// prefix's routes.
func (w *churnWorld) sweep(pfx netip.Prefix, addr netip.Addr, avoid lifeguard.ASN) (uint64, bool) {
	id := w.e.tr.begin("bgp.Lookup[sweep]")
	defer w.e.tr.end(id)
	ok := true
	for _, a := range w.asns {
		got, found := w.eng.Lookup(a, addr)
		want, has := w.eng.BestRoute(a, pfx)
		if found != has || got != want {
			ok = false
		}
		if avoid != 0 && found {
			if a == avoid {
				ok = false // loop prevention must have rejected it
			}
			for _, h := range got.Path[:max(0, len(got.Path)-3)] {
				if h == avoid {
					ok = false
				}
			}
		}
	}
	return ribDigest(w.eng, w.asns, []netip.Prefix{pfx}), ok
}

func (w *churnWorld) lab() (*labRig, error) { return tableLab(w.table) }
