package experiments

import (
	"fmt"
	"sort"
	"strings"

	"lifeguard/internal/metrics"
)

// Aggregate folds the per-seed Results of one experiment into mean/min/max
// statistics per headline key — the multi-seed variance report lgexp
// prints for -seeds N.
//
// Every key tracks its own presence: a key that appears in only some
// seeds is averaged over the seeds that produced it and annotated with
// its coverage, instead of inheriting a phantom zero min/max from seeds
// it was absent from (the bug in the old first-seed-initialized
// printAveraged loop; see TestAggregateSparseKey).
type Aggregate struct {
	id, title string
	n         int // results folded in
	perKey    map[string]*metrics.Sample
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{perKey: make(map[string]*metrics.Sample)}
}

// Add folds one seed's Result in. Call in seed order for deterministic
// rendering of order-sensitive statistics (float means).
func (a *Aggregate) Add(r *Result) {
	a.id, a.title = r.ID, r.Title
	a.n++
	for k, v := range r.Values {
		s := a.perKey[k]
		if s == nil {
			s = &metrics.Sample{}
			a.perKey[k] = s
		}
		s.Add(v)
	}
}

// String renders the report: one line per key with mean, min, and max over
// the seeds where the key was present, annotated when coverage is partial.
func (a *Aggregate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s (averaged over %d seeds)\n\n", a.id, a.title, a.n)
	keys := make([]string, 0, len(a.perKey))
	for k := range a.perKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := a.perKey[k]
		fmt.Fprintf(&b, "  %-40s mean %-10.4f min %-10.4f max %-10.4f",
			k, s.Mean(), s.Min(), s.Max())
		if s.N() < a.n {
			fmt.Fprintf(&b, " (in %d/%d seeds)", s.N(), a.n)
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	return b.String()
}
