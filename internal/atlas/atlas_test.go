package atlas

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"lifeguard/internal/bgp"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/nettest"
	"lifeguard/internal/probe"
	"lifeguard/internal/topo"
)

func setup(t *testing.T) (*nettest.Net, *Atlas) {
	t.Helper()
	n := nettest.Fig4(t)
	a := New(n.Top, n.Prober, n.Clk)
	a.AddVP(n.Hub(nettest.VP1AS))
	a.AddTarget(n.Top.Router(n.Hub(nettest.TargetAS)).Addr)
	return n, a
}

func TestRefreshRecordsBothDirections(t *testing.T) {
	n, a := setup(t)
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	a.RefreshAll()
	fwd := a.Forward(vp, target)
	if len(fwd) != 1 || !fwd[0].Reached {
		t.Fatalf("forward records = %+v", fwd)
	}
	if got := fwd[0].ASPath(); !got.Equal(topo.Path{1, 2, 3, 4}) {
		t.Fatalf("forward AS path = %v", got)
	}
	rev := a.Reverse(vp, target)
	if len(rev) != 1 || !rev[0].Reached {
		t.Fatalf("reverse records = %+v", rev)
	}
	if got := rev[0].ASPath(); !got.Equal(topo.Path{4, 3, 2, 1}) {
		t.Fatalf("reverse AS path = %v", got)
	}
}

func TestResponsivenessDB(t *testing.T) {
	n, a := setup(t)
	hub2 := n.Hub(nettest.TransitA)
	if a.EverResponsive(n.Top.Router(hub2).Addr) {
		t.Fatal("nothing probed yet")
	}
	a.RefreshAll()
	if !a.EverResponsive(n.Top.Router(hub2).Addr) {
		t.Fatal("transit hub should be recorded responsive")
	}
	// A configured-silent router never becomes responsive.
	silent := n.Hub(nettest.TransitB)
	n.Top.Router(silent).Responsive = false
	a2 := New(n.Top, n.Prober, n.Clk)
	a2.AddVP(n.Hub(nettest.VP1AS))
	a2.AddTarget(n.Top.Router(n.Hub(nettest.TargetAS)).Addr)
	a2.RefreshAll()
	if a2.EverResponsive(n.Top.Router(silent).Addr) {
		t.Fatal("silent router must not be marked responsive")
	}
}

func TestHistoricalHopsUnion(t *testing.T) {
	n, a := setup(t)
	a.RefreshAll()
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	hops := a.AppendHistoricalHops(nil, vp, target)
	if len(hops) == 0 {
		t.Fatal("no historical hops")
	}
	// Appending past hops already in dst deduplicates only what this call
	// appends: the union again, whole, after the first copy.
	twice := a.AppendHistoricalHops(slices.Clone(hops), vp, target)
	if !slices.Equal(twice[:len(hops)], hops) || !slices.Equal(twice[len(hops):], hops) {
		t.Fatalf("appended to itself: %+v, want the union twice: %+v", twice, hops)
	}
	seen := map[topo.RouterID]int{}
	for _, h := range hops {
		seen[h.Router]++
		if seen[h.Router] > 1 {
			t.Fatalf("duplicate hop %d", h.Router)
		}
	}
	// Hops from both directions should appear; the reverse path's
	// ingress into AS3 differs from the forward egress, so the union is
	// strictly bigger than either single path.
	fwd := a.Forward(vp, target)[0]
	if len(hops) <= len(fwd.Hops)-1 {
		t.Fatalf("union %d not larger than forward %d", len(hops), len(fwd.Hops))
	}
}

// TestMaxHistoryBound: past maxHistory refreshes, each direction keeps
// exactly the newest maxHistory records, oldest first.
func TestMaxHistoryBound(t *testing.T) {
	n, a := setup(t)
	var times []time.Duration
	for i := 0; i < maxHistory+3; i++ {
		times = append(times, n.Clk.Now())
		a.RefreshAll()
		n.Clk.RunFor(time.Minute)
	}
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	for _, dir := range []struct {
		name string
		recs []PathRecord
	}{{"forward", a.Forward(vp, target)}, {"reverse", a.Reverse(vp, target)}} {
		name, recs := dir.name, dir.recs
		if len(recs) != maxHistory {
			t.Fatalf("%s history length = %d, want %d", name, len(recs), maxHistory)
		}
		for i, rec := range recs {
			if want := times[3+i]; rec.At != want {
				t.Fatalf("%s record %d at %v, want %v: the oldest three must be the ones dropped", name, i, rec.At, want)
			}
		}
	}
}

// TestFullHistoryRefreshAllocatesNothing: once a pair's history is full,
// a refresh drops the oldest record in place; adding a record allocates
// nothing and the history keeps its array.
func TestFullHistoryRefreshAllocatesNothing(t *testing.T) {
	n, a := setup(t)
	for i := 0; i < maxHistory; i++ {
		a.RefreshAll()
		n.Clk.RunFor(time.Minute)
	}
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	ps := a.pair(vp, target)
	fwd, rev := &ps.fwd[0], &ps.rev[0]
	for i := 0; i < 3*maxHistory; i++ {
		a.RefreshAll()
		n.Clk.RunFor(time.Minute)
	}
	if &ps.fwd[0] != fwd || &ps.rev[0] != rev {
		t.Fatal("a refresh of a full history moved it to a new array")
	}
	h, rec := ps.fwd, ps.fwd[len(ps.fwd)-1]
	if allocs := testing.AllocsPerRun(100, func() { h = a.appendRecord(h, rec) }); allocs != 0 {
		t.Fatalf("adding a record to a full history: %v allocations, want 0", allocs)
	}
}

// TestAmortizedRefreshCost: a path measured for the first time costs the
// from-scratch fullMeasureCost; re-confirming it unchanged costs only the
// prober's amortized 10, and the traceroute is the same either way.
func TestAmortizedRefreshCost(t *testing.T) {
	_, a := setup(t)
	a.RefreshAll() // first measurement: full cost
	first := a.pr.ResetSent()
	a.RefreshAll() // unchanged path: incremental cost only
	second := a.pr.ResetSent()
	if first-second != fullMeasureCost-10 {
		t.Fatalf("initial refresh %d probes, steady-state %d: the premium is %d, want %d",
			first, second, first-second, fullMeasureCost-10)
	}
}

func TestPeriodicRefreshAndStop(t *testing.T) {
	n, a := setup(t)
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	start := n.Clk.Now()
	a.Start()
	n.Clk.RunUntil(start + 3*refreshInterval + refreshInterval/2)
	if got := len(a.Reverse(vp, target)); got != 4 { // start + 0, 1, 2, 3 intervals
		t.Fatalf("%d rounds, want 4", got)
	}
	a.Stop()
	n.Clk.RunFor(10 * refreshInterval)
	if got := len(a.Reverse(vp, target)); got != 4 {
		t.Fatalf("refresh continued after Stop: %d rounds", got)
	}
}

// TestLatestReverseBefore: the records strictly older than the cutoff,
// oldest first, as a sub-slice of the stored history that an append cannot
// write through.
func TestLatestReverseBefore(t *testing.T) {
	n, a := setup(t)
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	base := n.Clk.Now()
	a.RefreshAll() // at base
	n.Clk.RunFor(10 * time.Minute)
	a.RefreshAll() // at base+10m
	n.Clk.RunFor(10 * time.Minute)
	all := a.Reverse(vp, target)
	for _, tc := range []struct {
		cutoff time.Duration
		want   int
	}{
		{base, 0}, // strictly older: a record at the cutoff is not before it
		{base + 5*time.Minute, 1},
		{base + 10*time.Minute, 1},
		{base + 15*time.Minute, 2},
	} {
		recs := a.LatestReverseBefore(vp, target, tc.cutoff)
		if len(recs) != tc.want {
			t.Fatalf("before %v: %d records, want %d: %+v", tc.cutoff-base, len(recs), tc.want, recs)
		}
		if len(recs) == 0 {
			continue
		}
		if &recs[0] != &all[0] {
			t.Fatalf("before %v: a copy, want the stored history itself", tc.cutoff-base)
		}
		if cap(recs) != len(recs) {
			t.Fatalf("before %v: cap %d past len %d, an append would overwrite history", tc.cutoff-base, cap(recs), len(recs))
		}
	}
	if recs := a.LatestReverseBefore(vp, target, base+15*time.Minute); recs[0].At != base || recs[1].At != base+10*time.Minute {
		t.Fatalf("records before base+15m not oldest-first: %+v", recs)
	}
	if recs := a.LatestReverseBefore(n.Hub(nettest.VP5AS), target, base+15*time.Minute); recs != nil {
		t.Fatalf("a pair never refreshed has records: %+v", recs)
	}
}

func TestReverseRefreshFailsDuringFailure(t *testing.T) {
	n, a := setup(t)
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	a.RefreshAll()
	n.ReverseFailure()
	before := len(a.Reverse(vp, target))
	a.RefreshAll()
	if len(a.Reverse(vp, target)) != before {
		t.Fatal("reverse refresh should fail during reverse-path failure")
	}
	// Forward record is still appended (with stars past the horizon).
	fwd := a.Forward(vp, target)
	lastRec := fwd[len(fwd)-1]
	if lastRec.Reached {
		t.Fatal("forward traceroute should not complete during failure")
	}
}

// TestRefreshRate: once started, the atlas refreshes a pair every
// refreshInterval from Start on, not from t = 0.
func TestRefreshRate(t *testing.T) {
	n, a := setup(t)
	vp := n.Hub(nettest.VP1AS)
	target := n.Top.Router(n.Hub(nettest.TargetAS)).Addr
	start := n.Clk.Now()
	a.Start()
	n.Clk.RunUntil(start + 10*refreshInterval)
	recs := a.Reverse(vp, target)
	if len(recs) != 11 {
		t.Fatalf("%d refreshes in 10 intervals from Start, want 11", len(recs))
	}
	for i, r := range recs {
		if want := start + time.Duration(i)*refreshInterval; r.At != want {
			t.Fatalf("refresh %d at %v, want %v", i, r.At, want)
		}
	}
}

// TestUnchangedPathStoredOnce: a refresh that finds a path unchanged stores
// a record sharing the hops array of the one before it, a changed path gets
// an array of its own, and AppendHistoricalHops — which reads a run of shared
// records once — returns, after every refresh, the brute-force union over
// every record, in first-seen order from the newest record back, forward
// then reverse.
func TestUnchangedPathStoredOnce(t *testing.T) {
	n := nettest.Fig2(t)
	a := New(n.Top, n.Prober, n.Clk)
	vp := n.Hub(nettest.E)
	target := n.Top.Router(n.Hub(nettest.O)).Addr
	a.AddVP(vp)
	a.AddTarget(target)
	var buf []probe.Hop // reused across refreshes, as isolation reuses it
	last := func(recs []PathRecord) (cur, prev *PathRecord) {
		return &recs[len(recs)-1], &recs[len(recs)-2]
	}
	refresh := func(when string) {
		t.Helper()
		a.RefreshAll()
		n.Clk.RunFor(time.Minute)
		fwd, rev := a.Forward(vp, target), a.Reverse(vp, target)
		var want []probe.Hop
		seen := map[topo.RouterID]bool{}
		for _, recs := range [][]PathRecord{fwd, rev} {
			for i := range recs {
				if i > 0 && recs[i].Repeats(&recs[i-1]) != slices.Equal(recs[i].Hops, recs[i-1].Hops) {
					t.Fatalf("%s: records %d and %d must share one array exactly when they list the same hops", when, i-1, i)
				}
			}
			for i := len(recs) - 1; i >= 0; i-- {
				for _, h := range recs[i].Hops {
					if !h.Star && !seen[h.Router] {
						seen[h.Router] = true
						want = append(want, h)
					}
				}
			}
		}
		buf = a.AppendHistoricalHops(buf[:0], vp, target)
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("%s: AppendHistoricalHops\ngot  %+v\nwant %+v", when, buf, want)
		}
	}
	announce := func(asn topo.ASN, pattern topo.Path) {
		t.Helper()
		n.Eng.Announce(asn, topo.Block(asn), bgp.OriginConfig{Pattern: pattern})
		n.Converge(t)
	}
	poisonA := func(asn topo.ASN) { announce(asn, topo.Path{asn, nettest.A, asn}) }
	changed := func(recs []PathRecord) bool {
		cur, prev := last(recs)
		return !slices.Equal(cur.Hops, prev.Hops)
	}

	refresh("first measurement")
	refresh("unchanged")
	for _, recs := range [][]PathRecord{a.Forward(vp, target), a.Reverse(vp, target)} {
		if cur, prev := last(recs); !cur.Repeats(prev) {
			t.Fatalf("an unchanged path was stored twice: %+v and %+v", prev.Hops, cur.Hops)
		}
	}

	// E's forward path moves onto D-C-B while B's hub drops everything:
	// the trace shows D's and C's routers, B's up to its hub and then
	// silence, as many hops as the path through A shows when both go
	// again. D's and C's routers are on no other record.
	id := n.Plane.AddFailure(dataplane.BlackholeRouter(n.Hub(nettest.B)))
	poisonA(nettest.O)
	refresh("poisoned A, C blackholed")
	if fwd := a.Forward(vp, target); !changed(fwd) || !slices.Contains(fwd[len(fwd)-1].ASPath(), nettest.D) {
		t.Fatalf("forward path did not move onto D: %v", fwd[len(fwd)-1].ASPath())
	}
	n.Plane.RemoveFailure(id)
	announce(nettest.O, nil)
	refresh("back through A")
	if cur, prev := last(a.Forward(vp, target)); !changed(a.Forward(vp, target)) || len(cur.Hops) != len(prev.Hops) {
		t.Fatalf("want a path as long as the last one, through other routers: %+v then %+v", prev.Hops, cur.Hops)
	}

	// Poisoning A on O's block moves the forward path alone; poisoning it
	// on E's block moves the reverse path too. Then both poisons go and a
	// blackhole cuts the forward trace short.
	poisonA(nettest.O)
	refresh("poisoned A for O")
	if !changed(a.Forward(vp, target)) || changed(a.Reverse(vp, target)) {
		t.Fatal("poisoning A for O's block must move the forward path and only it")
	}
	poisonA(nettest.E)
	refresh("poisoned A for E")
	if !changed(a.Reverse(vp, target)) {
		t.Fatal("poisoning A for E's block must move the reverse path")
	}
	announce(nettest.O, nil)
	announce(nettest.E, nil)
	refresh("unpoisoned")
	// The poisons lifted, the forward path is the one it was before them,
	// and the held tracer hands back the slice it stored that path in.
	fwd := a.Forward(vp, target)
	cur := &fwd[len(fwd)-1]
	for i := len(fwd) - 2; i >= 0; i-- {
		if slices.Equal(fwd[i].Hops, cur.Hops) {
			if !cur.Repeats(&fwd[i]) {
				t.Fatalf("a path that flipped back was stored anew: record %d and the last list the same hops in two arrays", i)
			}
			break
		}
		if i == 0 {
			t.Fatal("unpoisoned: the forward path is none it was before")
		}
	}
	refresh("unpoisoned, unchanged")
	id = n.Plane.AddFailure(dataplane.BlackholeASTowards(nettest.B, topo.Block(nettest.O)))
	refresh("B blackholed")
	refresh("B blackholed, unchanged")
	n.Plane.RemoveFailure(id)
	refresh("healed")
}
