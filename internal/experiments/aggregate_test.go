package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func resultWith(id string, vals map[string]float64) *Result {
	r := newResult(id, "title for "+id)
	for k, v := range vals {
		r.Values[k] = v
	}
	return r
}

// TestAggregateSparseKey is the regression test for the printAveraged
// min/max bug: a key absent from the first seed used to keep the zero
// min/max it was initialized with on the `i == 0` branch, reporting e.g.
// min 0 for a metric that never measured 0. The aggregate must instead
// track per-key presence and compute min/max only over seeds where the
// key appeared.
func TestAggregateSparseKey(t *testing.T) {
	a := NewAggregate()
	a.Add(resultWith("x", map[string]float64{"always": 1.0}))
	a.Add(resultWith("x", map[string]float64{"always": 3.0, "late": 7.5}))
	a.Add(resultWith("x", map[string]float64{"always": 2.0, "late": 9.5}))

	out := a.String()
	if !strings.HasPrefix(out, "### x — title for x (averaged over 3 seeds)\n") {
		t.Fatalf("header does not count the three seeds:\n%s", out)
	}
	// The sparse key's mean, min and max come from the two seeds that
	// produced it, never a phantom 0 min, and its line carries the
	// coverage annotation; full-coverage keys are not annotated.
	for key, want := range map[string]string{
		"always": "mean 2.0000     min 1.0000     max 3.0000    \n",
		"late":   "mean 8.5000     min 7.5000     max 9.5000     (in 2/3 seeds)\n",
	} {
		line := fmt.Sprintf("  %-40s %s", key, want)
		if !strings.Contains(out, line) {
			t.Fatalf("rendered aggregate lacks line %q:\n%s", line, out)
		}
	}
}
