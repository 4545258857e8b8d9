package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Bucket is one cumulative histogram bucket in a snapshot. Only finite
// upper bounds appear (JSON cannot encode +Inf); the metric's Count field
// is the +Inf cumulative value.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Cumulative int64   `json:"cumulative"`
}

// Metric is one series frozen at snapshot time.
type Metric struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	// Value carries counters and gauges.
	Value int64 `json:"value"`
	// Sum, Count, and Buckets carry histograms.
	Sum     float64  `json:"sum,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// key reconstructs the series sort key.
func (m Metric) key() string { return seriesKey(m.Name, m.Labels) }

// Snapshot is a registry frozen at a point in time, with series in sorted
// series-key order. Equal registries render byte-identical snapshots, so
// snapshots are directly diffable for the determinism tests.
type Snapshot struct {
	Metrics []Metric          `json:"metrics"`
	Help    map[string]string `json:"help,omitempty"`
}

// Snapshot freezes the registry. Safe to call concurrently with handle
// updates (each series is read atomically; the snapshot as a whole is a
// consistent ordering, not a consistent cut — fine for monitoring, and
// exact once the simulation has quiesced). A nil registry snapshots
// empty.
//
// On a child view (see Child) the snapshot covers only the view's
// partition: series carrying every scope label, with HELP text restricted
// to the families present. Equal partitions render byte-identical
// snapshots whether they came from a shared root or a dedicated one — the
// property the multi-tenant determinism tests diff against.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	scope := r.scope
	root := r.root()
	root.mu.Lock()
	keys := make([]string, 0, len(root.series))
	for k := range root.series {
		if hasLabels(root.series[k].labels, scope) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	snap := Snapshot{Metrics: make([]Metric, 0, len(keys))}
	if len(root.help) > 0 && len(scope) == 0 {
		snap.Help = make(map[string]string, len(root.help))
		for k, v := range root.help {
			snap.Help[k] = v
		}
	} else if len(root.help) > 0 {
		for _, k := range keys {
			name := root.series[k].name
			if h, ok := root.help[name]; ok {
				if snap.Help == nil {
					snap.Help = make(map[string]string)
				}
				snap.Help[name] = h
			}
		}
	}
	for _, k := range keys {
		s := root.series[k]
		m := Metric{Name: s.name, Labels: s.labels, Kind: s.kind.String()}
		switch s.kind {
		case kindCounter:
			m.Value = s.c.Value()
		case kindGauge:
			m.Value = s.g.Value()
		case kindHistogram:
			m.Sum, m.Count = s.h.Sum(), s.h.Count()
			var cum int64
			m.Buckets = make([]Bucket, len(s.h.uppers))
			for i, u := range s.h.uppers {
				cum += s.h.counts[i].Load()
				m.Buckets[i] = Bucket{UpperBound: u, Cumulative: cum}
			}
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	root.mu.Unlock()
	return snap
}

// hasLabels reports whether ls (sorted by key) contains every label of
// want (also sorted) with an equal value.
func hasLabels(ls, want []Label) bool {
	i := 0
	for _, w := range want {
		for i < len(ls) && ls[i].Key < w.Key {
			i++
		}
		if i >= len(ls) || ls[i] != w {
			return false
		}
		i++
	}
	return true
}

// WriteJSON renders the snapshot as indented JSON. encoding/json sorts
// map keys, and Metrics is already sorted, so the bytes are deterministic
// for a given registry state.
func (s Snapshot) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
