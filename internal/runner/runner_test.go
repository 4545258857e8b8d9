package runner

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lifeguard/internal/obs"
)

// TestMapOrderedResults holds Map to a plain loop: results come back
// indexed by trial, and the first failure stops it, so no later trial runs.
func TestMapOrderedResults(t *testing.T) {
	got, err := Map(50, nil, func(i int, _ *obs.Registry) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}

	var ran []int
	_, err = Map(10, nil, func(i int, _ *obs.Registry) (int, error) {
		ran = append(ran, i)
		if i == 3 {
			return 0, errors.New("fail at three")
		}
		return i, nil
	})
	var te *TrialError
	if !errors.As(err, &te) || te.Trial != 3 || te.Stack != nil {
		t.Fatalf("want *TrialError for trial 3 without a stack, got %v", err)
	}
	if fmt.Sprint(ran) != "[0 1 2 3]" {
		t.Fatalf("trials run %v, want [0 1 2 3]", ran)
	}
}

// The registry contract: each trial writes its own registry, and the
// registries merge into dst in trial order, so a gauge every trial Sets
// sums across trials instead of keeping the last value; a nil dst hands
// every trial nil; a failing trial leaves dst untouched.
func TestMapMergesTrialRegistriesInOrder(t *testing.T) {
	trial := func(i int, reg *obs.Registry) (int, error) {
		if reg == nil {
			return 0, errors.New("instrumented run handed a trial no registry")
		}
		reg.Counter("trials_total").Inc()
		reg.Counter("by_parity_total", obs.L("parity", fmt.Sprint(i%2))).Add(int64(i))
		reg.Gauge("active").Set(10)
		// Float sums are order-sensitive: merged in order, trial 0's 1e16
		// absorbs each later 1 (half its ulp) one at a time; any other
		// order adds some of them up first.
		v := 1.0
		if i == 0 {
			v = 1e16
		}
		reg.Histogram("work_seconds", []float64{0.1, 1, 10}).Observe(v)
		return i, nil
	}
	snapshot := func(reg *obs.Registry) string {
		var b strings.Builder
		if err := reg.Snapshot().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	const n = 37
	dst := obs.New()
	if _, err := Map(n, dst, trial); err != nil {
		t.Fatal(err)
	}
	want := obs.New()
	for i := 0; i < n; i++ {
		reg := obs.New()
		if _, err := trial(i, reg); err != nil {
			t.Fatal(err)
		}
		want.Merge(reg)
	}
	if got := snapshot(dst); got != snapshot(want) {
		t.Fatalf("Map's registry differs from the trials' registries merged in order:\n%s\nwant\n%s", got, snapshot(want))
	}
	if got := dst.Gauge("active").Value(); got != 10*n {
		t.Fatalf("merged gauge = %d, want %d (one Set per trial, summed)", got, 10*n)
	}

	if _, err := Map(8, nil, func(i int, reg *obs.Registry) (int, error) {
		if reg != nil {
			return 0, fmt.Errorf("trial %d got a registry with dst nil", i)
		}
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}

	dst = obs.New()
	dst.Counter("before_total").Inc()
	before := snapshot(dst)
	_, err := Map(8, dst, func(i int, reg *obs.Registry) (int, error) {
		if i == 5 {
			return 0, errors.New("fail at five")
		}
		return trial(i, reg)
	})
	if err == nil {
		t.Fatal("failing trial reported no error")
	}
	if got := snapshot(dst); got != before {
		t.Fatalf("failed Map touched dst:\n%s\nwant\n%s", got, before)
	}
}

func TestPanicCapturedWithStack(t *testing.T) {
	_, err := Map(8, nil, func(i int, _ *obs.Registry) (int, error) {
		if i == 3 {
			panic("boom at three")
		}
		return i, nil
	})
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("want *TrialError, got %v", err)
	}
	if te.Trial != 3 {
		t.Fatalf("blamed trial %d, want 3", te.Trial)
	}
	if !strings.Contains(te.Err.Error(), "boom at three") {
		t.Fatalf("panic value lost: %v", te.Err)
	}
	if len(te.Stack) == 0 || !strings.Contains(string(te.Stack), "runner_test.go") {
		t.Fatalf("no usable stack captured:\n%s", te.Stack)
	}
}

func TestZeroTrials(t *testing.T) {
	got, err := Map(0, obs.New(), func(i int, _ *obs.Registry) (int, error) { return i, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}
