package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: splitting observations into two samples and merging them is
// indistinguishable — bit for bit — from adding them all to one sample.
// This is the equivalence the parallel experiment runner's ordered
// reduction rests on.
func TestSampleMergeEqualsConcatenationProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(vs []float64) []float64 {
			out := vs[:0]
			for _, v := range vs {
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					out = append(out, v)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)

		var a, b, whole Sample
		for _, v := range xs {
			a.Add(v)
			whole.Add(v)
		}
		for _, v := range ys {
			b.Add(v)
			whole.Add(v)
		}
		a.Merge(&b)

		if a.N() != whole.N() {
			return false
		}
		if a.N() == 0 {
			return math.IsNaN(a.Mean()) && math.IsNaN(a.Percentile(50))
		}
		// Mean must be bit-identical: the merged sample holds the values
		// in the same order, so the float summation order matches.
		if a.Mean() != whole.Mean() || a.Sum() != whole.Sum() {
			return false
		}
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
			if a.Percentile(p) != whole.Percentile(p) {
				return false
			}
		}
		return a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleMergePreSortedStillExact(t *testing.T) {
	// Sorting a (via a percentile query) before merging reorders its
	// internal values; rank statistics must still match exactly.
	var a, b, whole Sample
	for _, v := range []float64{9, 1, 5} {
		a.Add(v)
		whole.Add(v)
	}
	_ = a.Percentile(50) // forces the sort
	for _, v := range []float64{4, 8} {
		b.Add(v)
		whole.Add(v)
	}
	a.Merge(&b)
	for _, p := range []float64{0, 25, 50, 75, 100} {
		if a.Percentile(p) != whole.Percentile(p) {
			t.Fatalf("Percentile(%v) = %v, want %v", p, a.Percentile(p), whole.Percentile(p))
		}
	}
}

func TestSampleMergeNilAndEmpty(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Merge(nil)
	s.Merge(&Sample{})
	if s.N() != 1 || s.Mean() != 1 {
		t.Fatalf("merge of nil/empty corrupted sample: n=%d", s.N())
	}
}

func TestCounterMerge(t *testing.T) {
	a := Counter{Hits: 2, Total: 5}
	a.Merge(Counter{Hits: 1, Total: 3})
	if a.Hits != 3 || a.Total != 8 {
		t.Fatalf("merged counter = %+v", a)
	}
}
