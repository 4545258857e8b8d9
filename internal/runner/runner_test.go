package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lifeguard/internal/obs"
)

func TestMapOrderedResults(t *testing.T) {
	for _, par := range []int{1, 2, 8, 0} {
		got, err := Map(context.Background(), 50, Config{Parallelism: par}, nil,
			func(_ context.Context, i int, _ *obs.Registry) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: result[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

// The core contract: per-trial registries merge into dst in trial-index
// order, so dst's snapshot is byte-identical at every parallelism level; a
// nil dst hands every trial nil; a failing trial leaves dst untouched.
func TestMapMergesTrialRegistriesInOrder(t *testing.T) {
	trial := func(_ context.Context, i int, reg *obs.Registry) (int, error) {
		if reg == nil {
			return 0, errors.New("instrumented run handed a trial no registry")
		}
		reg.Counter("trials_total").Inc()
		reg.Counter("by_parity_total", obs.L("parity", fmt.Sprint(i%2))).Add(int64(i))
		reg.Gauge("inflight").Add(int64(i % 3))
		// Float sums are order-sensitive: only an ordered merge
		// reproduces the sequential bytes.
		reg.Histogram("work_seconds", []float64{0.1, 1, 10}).Observe(float64(i) * 0.37)
		return i, nil
	}
	snapshot := func(reg *obs.Registry) string {
		var b strings.Builder
		if err := reg.Snapshot().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	run := func(par int) string {
		dst := obs.New()
		if _, err := Map(context.Background(), 37, Config{Parallelism: par}, dst, trial); err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		return snapshot(dst)
	}
	want := run(1)
	if !strings.Contains(want, "work_seconds") {
		t.Fatalf("merged snapshot is missing the trials' series:\n%s", want)
	}
	for _, par := range []int{2, 8} {
		if got := run(par); got != want {
			t.Fatalf("parallel=%d snapshot diverged:\n%s\nvs sequential\n%s", par, got, want)
		}
	}

	for _, par := range []int{1, 4} {
		if _, err := Map(context.Background(), 8, Config{Parallelism: par}, nil,
			func(_ context.Context, i int, reg *obs.Registry) (int, error) {
				if reg != nil {
					return 0, fmt.Errorf("trial %d got a registry with dst nil", i)
				}
				return i, nil
			}); err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}

		dst := obs.New()
		dst.Counter("before_total").Inc()
		before := snapshot(dst)
		_, err := Map(context.Background(), 8, Config{Parallelism: par}, dst,
			func(ctx context.Context, i int, reg *obs.Registry) (int, error) {
				if i == 5 {
					return 0, errors.New("fail at five")
				}
				return trial(ctx, i, reg)
			})
		if err == nil {
			t.Fatalf("parallel=%d: failing trial reported no error", par)
		}
		if got := snapshot(dst); got != before {
			t.Fatalf("parallel=%d: failed Map touched dst:\n%s\nwant\n%s", par, got, before)
		}
	}
}

func TestPanicCapturedWithStack(t *testing.T) {
	for _, par := range []int{1, 4} {
		_, err := Map(context.Background(), 8, Config{Parallelism: par}, nil,
			func(_ context.Context, i int, _ *obs.Registry) (int, error) {
				if i == 3 {
					panic("boom at three")
				}
				return i, nil
			})
		var te *TrialError
		if !errors.As(err, &te) {
			t.Fatalf("parallel=%d: want *TrialError, got %v", par, err)
		}
		if te.Trial != 3 {
			t.Fatalf("parallel=%d: blamed trial %d, want 3", par, te.Trial)
		}
		if !strings.Contains(te.Err.Error(), "boom at three") {
			t.Fatalf("parallel=%d: panic value lost: %v", par, te.Err)
		}
		if len(te.Stack) == 0 || !strings.Contains(string(te.Stack), "runner_test.go") {
			t.Fatalf("parallel=%d: no usable stack captured:\n%s", par, te.Stack)
		}
	}
}

func TestErrorPrefersLowestIndexedRealFailure(t *testing.T) {
	// Trials 5 and 11 both fail. The reported failure must be one of
	// them — never a "context canceled" echo from a trial that was
	// abandoned because of the real failure.
	for rep := 0; rep < 10; rep++ {
		_, err := Map(context.Background(), 12, Config{Parallelism: 4}, nil,
			func(_ context.Context, i int, _ *obs.Registry) (int, error) {
				if i == 5 || i == 11 {
					return 0, fmt.Errorf("fail %d", i)
				}
				return i, nil
			})
		var te *TrialError
		if !errors.As(err, &te) {
			t.Fatalf("want *TrialError, got %v", err)
		}
		if te.Trial != 5 && te.Trial != 11 {
			t.Fatalf("blamed trial %d, want 5 or 11", te.Trial)
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("surfaced a cancellation echo instead of the failure: %v", err)
		}
	}
}

func TestErrorCancelsRemainingTrials(t *testing.T) {
	var started atomic.Int64
	_, err := Map(context.Background(), 1000, Config{Parallelism: 2}, nil,
		func(_ context.Context, i int, _ *obs.Registry) (int, error) {
			started.Add(1)
			if i == 0 {
				return 0, errors.New("fail fast")
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop dispatch: %d trials started", n)
	}
}

func TestParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 10, Config{Parallelism: 4}, nil,
		func(_ context.Context, i int, _ *obs.Registry) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestTrialTimeout(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	_, err := Map(context.Background(), 4, Config{Parallelism: 2, Timeout: 20 * time.Millisecond}, nil,
		func(ctx context.Context, i int, _ *obs.Registry) (int, error) {
			if i == 2 {
				select { // a stuck simulation that at least observes ctx
				case <-hang:
				case <-ctx.Done():
				}
			}
			return i, nil
		})
	var te *TrialError
	if !errors.As(err, &te) || !errors.Is(err, ErrTimeout) {
		t.Fatalf("want TrialError wrapping ErrTimeout, got %v", err)
	}
	if te.Trial != 2 {
		t.Fatalf("blamed trial %d, want 2", te.Trial)
	}
}

func TestTimeoutGenerousEnoughPasses(t *testing.T) {
	got, err := Map(context.Background(), 8, Config{Parallelism: 4, Timeout: 10 * time.Second}, nil,
		func(_ context.Context, i int, _ *obs.Registry) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got[7] != 8 {
		t.Fatalf("results corrupted under timeout mode: %v", got)
	}
}

func TestZeroTrials(t *testing.T) {
	got, err := Map(context.Background(), 0, Config{}, nil,
		func(_ context.Context, i int, _ *obs.Registry) (int, error) { return i, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestWorkersClamped(t *testing.T) {
	if w := (Config{Parallelism: 100}).workers(3); w != 3 {
		t.Fatalf("workers = %d, want 3", w)
	}
	if w := (Config{Parallelism: -1}).workers(1000); w < 1 {
		t.Fatalf("workers = %d, want >= 1", w)
	}
}
