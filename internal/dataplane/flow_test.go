package dataplane

import (
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// twinPlanes builds one converged ~60-AS internetwork and returns two
// fresh planes over it, so a run and a single-packet execution of the same
// stream can be compared from identical starting states.
func twinPlanes(t testing.TB) (*topogen.Result, *Plane, *Plane) {
	t.Helper()
	res, err := topogen.Generate(topogen.Config{Seed: 7, NumTransit: 12, NumStub: 48})
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	eng := bgp.New(res.Top, clk, bgp.Config{Seed: 7})
	for _, asn := range res.Top.ASNs() {
		eng.Originate(asn, topo.Block(asn))
	}
	if !eng.Converge(500_000_000) {
		t.Fatal("no convergence")
	}
	return res, New(res.Top, eng), New(res.Top, eng)
}

// flowStream builds the headers of a flow-group stream injected at the
// first stub's hub: production-address and router-address sources toward
// every third stub, and an unroutable destination.
func flowStream(res *topogen.Result) (topo.RouterID, []Packet) {
	top := res.Top
	from := top.AS(res.Stubs[0]).Routers[0]
	var pkts []Packet
	for i, s := range res.Stubs[1:] {
		if i%3 != 0 {
			continue
		}
		dst := top.Router(top.AS(s).Routers[0]).Addr
		pkts = append(pkts,
			Packet{Src: topo.ProductionAddr(res.Stubs[0]), Dst: dst},
			Packet{Src: topo.RouterAddr(res.Stubs[0], 0), Dst: dst})
	}
	pkts = append(pkts, Packet{Dst: topo.RouterAddr(200, 0)}) // NoRoute
	return from, pkts
}

// installRules puts a representative deterministic rule mix on both planes:
// an AS blackhole toward one prefix (the canonical reverse-path failure), a
// directed link drop, and a source-scoped rule.
func installRules(res *topogen.Result, planes ...*Plane) {
	for _, pl := range planes {
		pl.AddFailure(BlackholeASTowards(res.Transit[0], topo.Block(res.Stubs[4])))
		pl.AddFailure(DropASLink(res.Transit[1], res.Transit[2]))
		pl.AddFailure(Rule{AtAS: res.Transit[3], SrcWithin: topo.Block(res.Stubs[0])})
	}
}

// checkForwardN is ForwardN's contract: a run of n packets of one header
// meets the fates of n Plane.Forward calls on a twin plane, and leaves the
// same sequence number and the same counters behind — the repeats counted
// as the hits they would have been. With lossy set, both fates must occur
// across the stream. Afterwards a stream under a lossy rule meets the same
// fates on both planes, so the runs kept the numbering in step.
func checkForwardN(t *testing.T, rules func(*topogen.Result, ...*Plane),
	headers func(*topogen.Result) (topo.RouterID, []Packet), lossy bool) {
	t.Helper()
	res, single, run := twinPlanes(t)
	regS, regR := obs.New(), obs.New()
	single.Instrument(regS)
	run.Instrument(regR)
	rules(res, single, run)
	from, pkts := headers(res)

	var total [ForwardLoop + 1]int64
	for _, pkt := range pkts {
		f := run.Flow(from, pkt.Src, pkt.Dst) // held across the runs, as traffic holds it
		for _, n := range []int64{0, 1, 2, 5, 4096} {
			var want [ForwardLoop + 1]int64
			for range n {
				r := single.Forward(from, pkt)
				want[r.Reason]++
			}
			got := f.ForwardN(n)
			if got != want {
				t.Fatalf("%+v ×%d: run %v, single %v", pkt, n, got, want)
			}
			if run.seq != single.seq {
				t.Fatalf("%+v ×%d: run plane at seq %d, single at %d", pkt, n, run.seq, single.seq)
			}
			if s, r := encodeSnapshot(t, regS), encodeSnapshot(t, regR); s != r {
				t.Fatalf("%+v ×%d: counters diverge:\nsingle:\n%s\nrun:\n%s", pkt, n, s, r)
			}
			for i := range total {
				total[i] += got[i]
			}
		}
	}
	if lossy && (total[Delivered] == 0 || total[Blackhole] == 0) {
		t.Fatalf("loss rules not exercised: %v", total)
	}

	// Sequence alignment: verdicts hash (seed, per-packet seq), so any
	// drift in the runs' numbering shows up as different fates.
	for _, pl := range []*Plane{single, run} {
		pl.AddFailure(LossyAS(res.Transit[0], 0.5, 42))
	}
	for i, pkt := range pkts {
		for range 8 {
			if s, r := single.Forward(from, pkt), run.Forward(from, pkt); s.Reason != r.Reason {
				t.Fatalf("post-run packet %d: seq drift (single %v, run %v)", i, s.Reason, r.Reason)
			}
		}
	}
}

// TestForwardNMatchesForward holds ForwardN to checkForwardN's contract
// with no rules, and for headers the cache cannot key (every packet walks).
func TestForwardNMatchesForward(t *testing.T) {
	noRules := func(*topogen.Result, ...*Plane) {}
	t.Run("no rules", func(t *testing.T) {
		checkForwardN(t, noRules, flowStream, false)
	})
	t.Run("non-IPv4 header", func(t *testing.T) {
		checkForwardN(t, noRules, func(res *topogen.Result) (topo.RouterID, []Packet) {
			from, pkts := flowStream(res)
			v6 := netip.MustParseAddr("2001:db8::1")
			return from, []Packet{{Src: v6, Dst: pkts[0].Dst}, {Src: pkts[0].Src, Dst: v6}}
		}, false)
	})
}

// TestForwardBatchEquivalence holds a batch of n packets sent as one
// ForwardN run to n single Forward calls under a deterministic rule mix:
// same fates, counters and sequence numbering.
func TestForwardBatchEquivalence(t *testing.T) {
	checkForwardN(t, installRules, flowStream, false)
}

// TestForwardBatchEquivalenceWithProbRules pins the cache stand-down: with
// fractional DropProb rules live, a ForwardN run still matches the
// single-packet execution packet for packet (per-packet loss, not per-run
// loss), and both fates occur.
func TestForwardBatchEquivalenceWithProbRules(t *testing.T) {
	checkForwardN(t, func(res *topogen.Result, planes ...*Plane) {
		for _, pl := range planes {
			pl.AddFailure(LossyAS(res.Transit[0], 0.4, 9))
			pl.AddFailure(LossyAS(res.Transit[2], 0.2, 10))
		}
	}, flowStream, true)
}

// encodeSnapshot renders a registry snapshot as its canonical Prometheus
// text, the byte-comparison form the obs tests use.
func encodeSnapshot(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestIntraPathAliasingContract pins the dataplane.go intraPath contract:
// the returned slice aliases the path cache (no defensive copy), so
// callers — the walks behind ForwardN included — must never mutate it. The
// test proves both halves: the cache really does hand out one backing
// array, and heavy run forwarding leaves the cached contents untouched.
func TestIntraPathAliasingContract(t *testing.T) {
	res, _, pl := twinPlanes(t)
	from, pkts := flowStream(res)
	runs := func() {
		for _, p := range pkts {
			f := pl.Flow(from, p.Src, p.Dst)
			f.ForwardN(64)
		}
	}

	// Warm the cache, snapshot every cached path.
	runs()
	if len(pl.pathCache) == 0 {
		t.Fatal("no intra-AS paths cached")
	}
	type snap struct {
		alias []topo.RouterID
		copy  []topo.RouterID
	}
	snaps := make(map[[2]topo.RouterID]snap, len(pl.pathCache))
	for key, p := range pl.pathCache {
		snaps[key] = snap{alias: p, copy: append([]topo.RouterID(nil), p...)}
	}

	// Re-querying returns the same backing array, not a copy.
	for key, s := range snaps {
		if len(s.alias) == 0 {
			continue
		}
		again := pl.intraPath(key[0], key[1])
		if &again[0] != &s.alias[0] {
			t.Fatalf("intraPath(%v) returned a copy; the contract is aliasing", key)
		}
	}

	// Run forwarding only reads the cached paths.
	for i := 0; i < 10; i++ {
		runs()
	}
	for key, s := range snaps {
		if !reflect.DeepEqual(s.alias, s.copy) {
			t.Fatalf("ForwardN mutated cached intraPath(%v): %v, was %v", key, s.alias, s.copy)
		}
	}
}

// TestDropCountersCoverEveryReason guards the drops-by-reason counter
// array against enum growth: every named DropReason must have a registered
// counter after Instrument. The reason count is discovered dynamically
// from the String fallback, so appending a reason without growing the
// planeObs array (or naming it) fails here instead of silently
// undercounting.
func TestDropCountersCoverEveryReason(t *testing.T) {
	n := 0
	for DropReason(n).String() != fmt.Sprintf("dropreason(%d)", n) {
		n++
		if n > 64 {
			t.Fatal("DropReason fallback never reached; String is broken")
		}
	}
	if n < int(ForwardLoop)+1 {
		t.Fatalf("only %d named reasons but ForwardLoop is %d", n, ForwardLoop)
	}
	if len([ForwardLoop + 1]*obs.Counter{}) != n {
		t.Fatalf("planeObs drops array holds %d slots but %d reasons are named; "+
			"grow the array (and Instrument's loop) with the enum", int(ForwardLoop)+1, n)
	}

	_, _, pl := twinPlanes(t)
	reg := obs.New()
	pl.Instrument(reg)
	if pl.obs.drops[Delivered] != nil {
		t.Fatal("Delivered slot must stay nil (delivery is not a drop)")
	}
	for r := NoRoute; int(r) < n; r++ {
		if pl.obs.drops[r] == nil {
			t.Fatalf("reason %v (%d) has no registered drop counter", r, int(r))
		}
	}
}

// TestDropReasonStringRoundTrip mirrors the EventKind.String contract:
// every defined reason has a unique stable name and unknown values render
// as "dropreason(N)".
func TestDropReasonStringRoundTrip(t *testing.T) {
	all := []DropReason{Delivered, NoRoute, Blackhole, TTLExpired, ForwardLoop}
	seen := make(map[string]DropReason, len(all))
	for _, r := range all {
		s := r.String()
		if s == "" || strings.HasPrefix(s, "dropreason(") {
			t.Fatalf("reason %d has no proper name: %q", int(r), s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("reasons %d and %d share the name %q", int(prev), int(r), s)
		}
		seen[s] = r
	}
	if next := ForwardLoop + 1; next.String() != "dropreason(5)" {
		t.Fatalf("first unknown reason renders %q, want dropreason(5)", next.String())
	}
	for _, r := range []DropReason{17, -2} {
		want := fmt.Sprintf("dropreason(%d)", int(r))
		if got := r.String(); got != want {
			t.Fatalf("DropReason(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}

// TestResultString covers the one-line fate rendering.
func TestResultString(t *testing.T) {
	if got := (&Result{}).String(); got != "delivered" {
		t.Fatalf("empty result renders %q", got)
	}
	r := &Result{
		Reason:     Blackhole,
		Hops:       []Hop{{Router: 1, AS: 1}, {Router: 7, AS: 2}},
		LastAS:     2,
		LastRouter: 7,
	}
	want := "blackhole at AS2 (router 7) after 2 hops"
	if got := r.String(); got != want {
		t.Fatalf("Result.String() = %q, want %q", got, want)
	}
}
