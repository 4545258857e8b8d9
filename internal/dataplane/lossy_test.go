package dataplane

import (
	"testing"

	"lifeguard/internal/topo"
)

// TestFailureIDsNeverReused pins the FailureID lifecycle contract documented
// on AddFailure: ids are allocated from a monotone counter and are never
// recycled, even after RemoveFailure or ClearFailures. Chaos heal/inject
// churn depends on a stale id never silently aliasing a newer rule.
func TestFailureIDsNeverReused(t *testing.T) {
	_, _, pl := lineNet(t)

	a := pl.AddFailure(BlackholeAS(2))
	b := pl.AddFailure(DropASLink(1, 2))
	if b <= a {
		t.Fatalf("ids not monotone: %d then %d", a, b)
	}
	if !pl.RemoveFailure(a) {
		t.Fatal("RemoveFailure(a) = false, want true")
	}
	if pl.RemoveFailure(a) {
		t.Fatal("double RemoveFailure(a) = true, want false")
	}
	c := pl.AddFailure(BlackholeAS(3))
	if c <= b {
		t.Fatalf("freed id recycled: got %d after %d", c, b)
	}
	if c == a {
		t.Fatalf("id %d reused for a different rule", a)
	}

	pl.ClearFailures()
	if pl.ActiveFailures() != 0 {
		t.Fatalf("ActiveFailures = %d after ClearFailures", pl.ActiveFailures())
	}
	d := pl.AddFailure(DropASLink(2, 3))
	if d <= c {
		t.Fatalf("ClearFailures reset the counter: got %d after %d", d, c)
	}
	// The stale ids must stay dead: removing them fails, looking them up
	// finds nothing, and the one live rule is still d.
	for _, stale := range []FailureID{a, b, c} {
		if pl.RemoveFailure(stale) {
			t.Fatalf("stale id %d removable after ClearFailures", stale)
		}
		if _, ok := pl.Failure(stale); ok {
			t.Fatalf("stale id %d still resolves to a rule", stale)
		}
	}
	if r, ok := pl.Failure(d); !ok || r.FromAS != 2 || r.ToAS != 3 {
		t.Fatalf("Failure(d) = %+v, %v", r, ok)
	}
}

// TestProbabilisticLossFraction checks that a DropProb rule drops roughly
// its configured fraction of a packet stream, and that DropProb = 0 keeps
// the pre-existing always-drop semantics of a plain matcher rule.
func TestProbabilisticLossFraction(t *testing.T) {
	top, _, pl := lineNet(t)
	src, dst := hub(top, 1), top.Router(hub(top, 3)).Addr
	pkt := Packet{Src: top.Router(hub(top, 1)).Addr, Dst: dst}

	const n = 2000
	for _, prob := range []float64{0.25, 0.5, 0.9} {
		pl.ClearFailures()
		pl.AddFailure(LossyAS(2, prob, 0xC0FFEE))
		dropped := 0
		for i := 0; i < n; i++ {
			if r := pl.Forward(src, pkt); !r.Delivered() {
				dropped++
			}
		}
		got := float64(dropped) / n
		if got < prob-0.05 || got > prob+0.05 {
			t.Errorf("prob %.2f: dropped %.3f of %d packets", prob, got, n)
		}
	}

	// DropProb zero value: the rule is a deterministic always-drop matcher.
	pl.ClearFailures()
	pl.AddFailure(BlackholeAS(2))
	for i := 0; i < 10; i++ {
		if r := pl.Forward(src, pkt); r.Delivered() {
			t.Fatal("DropProb=0 rule delivered a packet")
		}
	}
	// DropProb >= 1 also always drops.
	pl.ClearFailures()
	pl.AddFailure(LossyAS(2, 1.0, 7))
	for i := 0; i < 10; i++ {
		if r := pl.Forward(src, pkt); r.Delivered() {
			t.Fatal("DropProb=1 rule delivered a packet")
		}
	}
}

// TestProbabilisticLossDeterministic asserts the loss verdict is a pure
// function of (ProbSeed, packet sequence): two identically built planes see
// identical per-packet outcomes, and the outcome for a given packet does not
// depend on unrelated rules installed alongside (map-iteration independence).
func TestProbabilisticLossDeterministic(t *testing.T) {
	run := func(extra ...Rule) []bool {
		_, _, pl := lineNet(t)
		pl.AddFailure(LossyAS(2, 0.5, 42))
		for _, r := range extra {
			pl.AddFailure(r)
		}
		top := pl.top
		src := hub(top, 1)
		pkt := Packet{Src: top.Router(src).Addr, Dst: top.Router(hub(top, 3)).Addr}
		out := make([]bool, 200)
		for i := range out {
			r := pl.Forward(src, pkt)
			out[i] = r.Delivered()
		}
		return out
	}

	base := run()
	again := run()
	// A rule that never matches this flow must not perturb the verdicts.
	decoy := run(DropASLink(3, 2), BlackholeASTowards(1, topo.Block(2)))
	for i := range base {
		if base[i] != again[i] {
			t.Fatalf("packet %d: replay diverged", i)
		}
		if base[i] != decoy[i] {
			t.Fatalf("packet %d: verdict depends on unrelated rules", i)
		}
	}
	delivered := 0
	for _, ok := range base {
		if ok {
			delivered++
		}
	}
	if delivered == 0 || delivered == len(base) {
		t.Fatalf("delivered %d/%d: not probabilistic", delivered, len(base))
	}
}
