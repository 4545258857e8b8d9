package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose; must not be reordered
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.95, 38.5},
	} {
		if got := quantile(xs, tc.q); !near(got, tc.want) {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, tc.q, got, tc.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if got := mean([]float64{1, 2, 6}); !near(got, 3) {
		t.Errorf("mean = %g, want 3", got)
	}
}

// One window in five hit by a 4× burst must not move the window-median
// rate, where the whole-run rate drops by more than a third.
func TestWindowRateIgnoresABurst(t *testing.T) {
	ws := make([]windowStats, 5)
	for i := range ws {
		ws[i] = windowStats{ops: 100, wall: time.Second, mallocs: 5000}
	}
	ws[2].wall = 4 * time.Second
	if got := windowRate(ws); !near(got, 100) {
		t.Errorf("windowRate = %g ops/s, want 100", got)
	}
	whole := 500 / 8.0
	if whole > 65 {
		t.Fatalf("test premise: whole-run rate %g should be well under 100", whole)
	}
	ws[4].mallocs = 7500
	if got := allocsPerOp(ws); !near(got, 55) {
		t.Errorf("allocsPerOp = %g, want 27500 mallocs / 500 ops = 55", got)
	}
}

// Weather that slows both sides of a pair alike must cancel out of the
// paired rate — a host half as fast in some windows reads the same — and a
// burst that hit one side of one window must not move it either.
func TestPairedRateCancelsSharedWeather(t *testing.T) {
	weather := []float64{1, 2, 1.3, 0.8, 1.6}
	subject := make([]windowStats, len(weather))
	ref := make([]windowStats, len(weather))
	for i, w := range weather {
		// The subject is 1.25× the reference's speed in any weather.
		subject[i] = windowStats{ops: 100, wall: time.Duration(w * 0.8 * float64(time.Second))}
		ref[i] = windowStats{ops: 100, wall: time.Duration(w * float64(time.Second))}
	}
	if got := pairedRate(subject, ref, 40); !near(got, 50) {
		t.Errorf("pairedRate = %g, want 1.25 × 40 = 50", got)
	}
	if raw := windowRate(subject); near(raw, 125) {
		t.Fatalf("test premise: the raw rate %g should carry the weather", raw)
	}
	subject[3].wall *= 3
	if got := pairedRate(subject, ref, 40); !near(got, 50) {
		t.Errorf("pairedRate with a one-sided burst = %g, want 50", got)
	}
}

func TestShareAndSelfCost(t *testing.T) {
	// 200 calls per op of 1µs each in a 1ms op: a fifth of the op.
	if got := share(200, 1e3, 1e6); !near(got, 0.2) {
		t.Errorf("share = %g, want 0.2", got)
	}
	if got := share(200, 1e3, 0); got != 0 {
		t.Errorf("share with no op time = %g, want 0", got)
	}
	// A 10µs ping that forwards 2 packets of 3µs each costs 4µs itself.
	ping := selfCost(10e3, nestedCalls{2, 3e3})
	if !near(ping, 4e3) {
		t.Errorf("selfCost = %v ns, want 4000", ping)
	}
	// Nested estimates above the total clamp to zero, never negative.
	if got := selfCost(1e3, nestedCalls{2, 1e3}); got != 0 {
		t.Errorf("selfCost over-subtracted = %v, want 0", got)
	}
	// Self costs do not double-count: forward + ping-self prices one ping.
	total := share(1, ping, 100e3) + share(2, 3e3, 100e3)
	if !near(total, 0.1) {
		t.Errorf("ping self + its forwards = %g of the op, want 0.1", total)
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(95, 105); !near(got, 0.1) {
		t.Errorf("relDiff = %g, want 0.1", got)
	}
	if relDiff(0, 0) != 0 {
		t.Error("relDiff(0,0) should be 0")
	}
}

func TestStealFrac(t *testing.T) {
	got := stealFrac(cpuTicks{total: 1000, steal: 10}, cpuTicks{total: 2000, steal: 60})
	if !near(got, 0.05) {
		t.Errorf("stealFrac = %g, want 0.05", got)
	}
	if stealFrac(cpuTicks{}, cpuTicks{}) != 0 {
		t.Error("stealFrac with no ticks should be 0")
	}
}
