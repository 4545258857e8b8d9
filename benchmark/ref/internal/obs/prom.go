package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type of the text exposition format
// this package emits.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the snapshot in Prometheus text exposition
// format 0.0.4: families in sorted-name order, each preceded by its
// # HELP / # TYPE header, histograms expanded into cumulative _bucket
// series (le-labelled, +Inf last) plus _sum and _count. Deterministic for
// a given snapshot.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	// Group series into families. Snapshot order is sorted by series key,
	// which keeps one family's series in label order but can interleave
	// families (an unlabelled "foo" sorts before "foo_bar" sorts before
	// "foo{…}"), so group explicitly.
	byFamily := make(map[string][]Metric)
	names := make([]string, 0, len(s.Metrics))
	for _, m := range s.Metrics {
		if _, ok := byFamily[m.Name]; !ok {
			names = append(names, m.Name)
		}
		byFamily[m.Name] = append(byFamily[m.Name], m)
	}
	sort.Strings(names)

	for _, name := range names {
		fam := byFamily[name]
		if help, ok := s.Help[name]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, fam[0].Kind); err != nil {
			return err
		}
		for _, m := range fam {
			if err := writeSeries(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, m Metric) error {
	switch m.Kind {
	case "histogram":
		for _, b := range m.Buckets {
			if err := writeSample(w, m.Name+"_bucket", m.Labels, "le", formatFloat(b.UpperBound), float64(b.Cumulative)); err != nil {
				return err
			}
		}
		if err := writeSample(w, m.Name+"_bucket", m.Labels, "le", "+Inf", float64(m.Count)); err != nil {
			return err
		}
		if err := writeSample(w, m.Name+"_sum", m.Labels, "", "", m.Sum); err != nil {
			return err
		}
		return writeSample(w, m.Name+"_count", m.Labels, "", "", float64(m.Count))
	default:
		return writeSample(w, m.Name, m.Labels, "", "", float64(m.Value))
	}
}

// writeSample emits one "name{labels} value" line, appending an extra
// label (the histogram le) when extraKey is non-empty.
func writeSample(w io.Writer, name string, labels []Label, extraKey, extraVal string, value float64) error {
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 || extraKey != "" {
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
		if extraKey != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraKey)
			b.WriteString(`="`)
			b.WriteString(extraVal)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(value))
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a sample value the shortest round-trippable way.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp applies the HELP-line escapes (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
