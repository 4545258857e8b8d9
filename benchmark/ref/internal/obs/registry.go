// Package obs is the repo's observability subsystem: a metrics registry
// (counters, gauges, fixed-bucket histograms), a sim-time event journal,
// and deterministic export encoders (Prometheus text format and JSON).
//
// Design constraints, in priority order:
//
//  1. Determinism-neutral. Instrumentation must never perturb simulation
//     results: handles are nil-safe (a disabled registry costs one branch
//     per operation and allocates nothing), snapshots render in sorted
//     series-key order, and per-trial registries merge by addition in
//     trial-index order — the same mergeable-accumulator discipline as
//     internal/metrics — so the merged snapshot is byte-identical at
//     every parallelism level.
//  2. No package-global mutable state. Everything hangs off an explicit
//     *Registry; two rigs in one process never share a counter.
//  3. Stdlib only, and no wall-clock reads: the journal is stamped with
//     simclock virtual time supplied by the caller, and the registry
//     itself never touches package time beyond the time.Duration type.
//     (The HTTP exporter, which legitimately lives on the wall clock,
//     is quarantined in the obs/obshttp subpackage.)
//
// Naming convention: lifeguard_<subsystem>_<metric>, with Prometheus
// suffix rules (_total for counters, unit suffixes for histograms).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Disabled is the no-op registry: every handle obtained from it is nil,
// and nil handles make every operation a single branch. Passing Disabled
// (or any nil *Registry) is how instrumented code runs uninstrumented.
var Disabled *Registry

// Label is one key="value" dimension of a series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates the three metric types.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// series is one registered time series.
type series struct {
	name   string
	labels []Label // sorted by key
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry owns a set of named series. The zero value is not usable; use
// New. A nil *Registry is the disabled registry: registration returns nil
// handles and Snapshot returns an empty snapshot.
//
// Registration takes a mutex; the returned handles are lock-free atomics,
// safe to update from any goroutine and to snapshot concurrently (e.g.
// from the HTTP exporter while the simulation runs).
//
// A Registry obtained from Child is a *scoped view*: it shares the root's
// series storage but stamps a fixed label set onto every registration, and
// its Snapshot covers only the stamped partition. Views are how tenants
// sharing one process-wide registry avoid series collisions — see Child.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
	help   map[string]string

	// parent is nil at a root registry; a child view delegates all series
	// storage to the root and only carries its scope.
	parent *Registry
	// scope is the label set a child view stamps on every series it
	// registers (sorted by key; empty at a root).
	scope []Label
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{series: make(map[string]*series), help: make(map[string]string)}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// root resolves a view to the registry that owns the series storage.
func (r *Registry) root() *Registry {
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// scoped prepends the view's scope labels to a registration's own labels.
func (r *Registry) scoped(labels []Label) []Label {
	if len(r.scope) == 0 {
		return labels
	}
	out := make([]Label, 0, len(r.scope)+len(labels))
	out = append(out, r.scope...)
	out = append(out, labels...)
	return out
}

// Child returns a scoped view of the registry: every series registered
// through the view carries the given labels in addition to its own, and the
// view's Snapshot covers exactly that partition. Two tenants registering
// the same metric name through differently-scoped children therefore get
// distinct series instead of silently sharing (or panicking over) one —
// the collision guard the multi-tenant facade relies on. Registering a
// label whose key collides with a scope key panics, as does nesting
// children with a repeated key. Child of a nil registry is nil (still
// disabled); Child of a child composes scopes.
func (r *Registry) Child(labels ...Label) *Registry {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic("obs: Child needs at least one scope label")
	}
	return &Registry{parent: r.root(), scope: canonLabels(r.scoped(labels))}
}

// Describe attaches HELP text to a metric family. Safe on a nil registry.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	mustValidName(name)
	root := r.root()
	root.mu.Lock()
	root.help[name] = help
	root.mu.Unlock()
}

// Counter registers (or re-fetches) a monotonically increasing counter.
// Returns nil on a nil registry. Panics if the series exists with a
// different kind, or on an invalid name or label.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.root().getSeries(name, r.scoped(labels), kindCounter, nil).c
}

// Gauge registers (or re-fetches) a gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.root().getSeries(name, r.scoped(labels), kindGauge, nil).g
}

// Histogram registers (or re-fetches) a fixed-bucket histogram. Buckets
// are upper bounds, strictly increasing, finite; an implicit +Inf bucket
// catches overflow. Re-registration must use identical buckets.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket")
	}
	for i, b := range buckets {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic(fmt.Sprintf("obs: histogram %s: bucket %v must be finite", name, b))
		}
		if i > 0 && buckets[i-1] >= b {
			panic(fmt.Sprintf("obs: histogram %s: buckets not strictly increasing", name))
		}
	}
	return r.root().getSeries(name, r.scoped(labels), kindHistogram, buckets).h
}

// getSeries finds or creates the series under the registry lock.
func (r *Registry) getSeries(name string, labels []Label, k kind, buckets []float64) *series {
	mustValidName(name)
	ls := canonLabels(labels)
	key := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != k {
			panic(fmt.Sprintf("obs: %s already registered as %v, requested %v", key, s.kind, k))
		}
		if k == kindHistogram && !equalFloats(s.h.uppers, buckets) {
			panic(fmt.Sprintf("obs: histogram %s re-registered with different buckets", key))
		}
		return s
	}
	s := &series{name: name, labels: ls, kind: k}
	switch k {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(buckets)
	}
	r.series[key] = s
	return s
}

// Counter is a monotonically increasing count. All methods are nil-safe:
// on a nil counter they are single-branch no-ops.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n; n must be non-negative (counters never go down).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decremented")
	}
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the gauge; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Observations land in the
// first bucket whose upper bound is >= the value (le semantics), or the
// implicit +Inf overflow bucket. Nil-safe like Counter.
type Histogram struct {
	uppers []float64      // finite upper bounds, strictly increasing
	counts []atomic.Int64 // len(uppers)+1; last is the +Inf bucket
	sum    atomicFloat64
	total  atomic.Int64
}

func newHistogram(uppers []float64) *Histogram {
	u := make([]float64, len(uppers))
	copy(u, uppers)
	return &Histogram{uppers: u, counts: make([]atomic.Int64, len(u)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.uppers, v)].Add(1)
	h.sum.add(v)
	h.total.Add(1)
}

// Count reads the total number of observations; 0 on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum reads the sum of all observed values; 0 on a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// atomicFloat64 is a CAS-loop float accumulator over uint64 bits.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (f *atomicFloat64) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat64) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Merge folds src into r by addition: counters and histogram buckets add,
// gauges add (per-trial gauges are deltas from zero, so addition composes
// sizes the same way internal/metrics accumulators do), HELP text fills
// gaps. Missing series are created. Within one call, src's series are
// folded in sorted-key order, so a fixed sequence of Merge calls — e.g.
// per-trial registries in trial-index order — produces a bit-identical
// registry regardless of how the trials were scheduled.
//
// Merge is a no-op when either registry is nil. It panics if a series
// exists in both with different kinds or histogram buckets, and on a child
// view on either side: a scoped merge would have to rewrite labels, and no
// caller needs it — merge roots, partition afterwards.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	if r.parent != nil || src.parent != nil {
		panic("obs: Merge on a child registry view; merge the roots instead")
	}
	type seriesVal struct {
		s       *series
		ival    int64
		bcounts []int64
		sum     float64
		total   int64
	}

	src.mu.Lock()
	keys := make([]string, 0, len(src.series))
	for k := range src.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]seriesVal, 0, len(keys))
	for _, k := range keys {
		s := src.series[k]
		v := seriesVal{s: s}
		switch s.kind {
		case kindCounter:
			v.ival = s.c.Value()
		case kindGauge:
			v.ival = s.g.Value()
		case kindHistogram:
			v.bcounts = make([]int64, len(s.h.counts))
			for i := range s.h.counts {
				v.bcounts[i] = s.h.counts[i].Load()
			}
			v.sum, v.total = s.h.Sum(), s.h.Count()
		}
		vals = append(vals, v)
	}
	helps := make(map[string]string, len(src.help))
	for k, v := range src.help {
		helps[k] = v
	}
	src.mu.Unlock()

	for name, help := range helps {
		r.mu.Lock()
		if _, ok := r.help[name]; !ok {
			r.help[name] = help
		}
		r.mu.Unlock()
	}
	for _, v := range vals {
		s := v.s
		var buckets []float64
		if s.kind == kindHistogram {
			buckets = s.h.uppers
		}
		dst := r.getSeries(s.name, s.labels, s.kind, buckets)
		switch s.kind {
		case kindCounter:
			dst.c.Add(v.ival)
		case kindGauge:
			dst.g.Add(v.ival)
		case kindHistogram:
			for i, n := range v.bcounts {
				dst.h.counts[i].Add(n)
			}
			dst.h.sum.add(v.sum)
			dst.h.total.Add(v.total)
		}
	}
}

// canonLabels copies and sorts labels by key, validating syntax.
func canonLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	for i, l := range ls {
		mustValidLabelKey(l.Key)
		if i > 0 && ls[i-1].Key == l.Key {
			panic(fmt.Sprintf("obs: duplicate label key %q", l.Key))
		}
	}
	return ls
}

// seriesKey renders the canonical sort/identity key for a series.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus label-value escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func mustValidName(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

func mustValidLabelKey(key string) {
	if !validLabelKey(key) {
		panic(fmt.Sprintf("obs: invalid label key %q", key))
	}
}

// validMetricName matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// validLabelKey matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
