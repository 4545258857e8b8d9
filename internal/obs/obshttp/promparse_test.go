package obshttp_test

// A small validating parser for the Prometheus text exposition format
// (version 0.0.4), used by the endpoint tests so /metrics is checked
// structurally — comment ordering, label syntax, histogram bucket
// monotonicity — rather than string-matched.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promFamily struct {
	name    string
	typ     string
	help    string
	samples []promSample
}

var promTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

// parseProm validates text and returns the families keyed by name.
func parseProm(text string) (map[string]*promFamily, error) {
	fams := make(map[string]*promFamily)
	get := func(name string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name}
			fams[name] = f
		}
		return f
	}
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if !validPromName(name) {
				return nil, fmt.Errorf("line %d: bad metric name %q", lineNo, name)
			}
			f := get(name)
			if len(f.samples) > 0 {
				return nil, fmt.Errorf("line %d: %s for %s after its samples", lineNo, fields[1], name)
			}
			switch fields[1] {
			case "HELP":
				if f.help != "" {
					return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				if len(fields) == 4 {
					f.help = fields[3]
				}
			case "TYPE":
				if f.typ != "" {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if len(fields) != 4 || !promTypes[fields[3]] {
					return nil, fmt.Errorf("line %d: bad TYPE line %q", lineNo, line)
				}
				f.typ = fields[3]
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam := familyOf(s.name, fams)
		f, ok := fams[fam]
		if !ok || f.typ == "" {
			return nil, fmt.Errorf("line %d: sample %s before any TYPE declaration", lineNo, s.name)
		}
		f.samples = append(f.samples, s)
	}
	for _, f := range fams {
		if err := validateFamily(f); err != nil {
			return nil, err
		}
	}
	return fams, nil
}

// familyOf maps a sample name to its family: histogram samples carry
// _bucket/_sum/_count suffixes.
func familyOf(sample string, fams map[string]*promFamily) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suf)
		if base != sample {
			if f, ok := fams[base]; ok && f.typ == "histogram" {
				return base
			}
		}
	}
	return sample
}

func validateFamily(f *promFamily) error {
	if f.typ == "" {
		return fmt.Errorf("family %s: no TYPE", f.name)
	}
	if f.typ != "histogram" {
		for _, s := range f.samples {
			if s.name != f.name {
				return fmt.Errorf("family %s: stray sample %s", f.name, s.name)
			}
			if f.typ == "counter" && s.value < 0 {
				return fmt.Errorf("family %s: negative counter %v", f.name, s.value)
			}
		}
		return nil
	}
	// Histogram: group by the non-le labels, then check each series.
	type hist struct {
		les   []float64
		cums  []float64
		sum   *float64
		count *float64
	}
	groups := make(map[string]*hist)
	for _, s := range f.samples {
		rest := make([]string, 0, len(s.labels))
		for k, v := range s.labels {
			if k != "le" {
				rest = append(rest, k+"="+v)
			}
		}
		sort.Strings(rest)
		g, ok := groups[strings.Join(rest, ",")]
		if !ok {
			g = &hist{}
			groups[strings.Join(rest, ",")] = g
		}
		switch s.name {
		case f.name + "_bucket":
			le, ok := s.labels["le"]
			if !ok {
				return fmt.Errorf("family %s: bucket without le", f.name)
			}
			lv, err := parsePromValue(le)
			if err != nil {
				return fmt.Errorf("family %s: bad le %q", f.name, le)
			}
			g.les = append(g.les, lv)
			g.cums = append(g.cums, s.value)
		case f.name + "_sum":
			v := s.value
			g.sum = &v
		case f.name + "_count":
			v := s.value
			g.count = &v
		default:
			return fmt.Errorf("family %s: stray sample %s", f.name, s.name)
		}
	}
	for key, g := range groups {
		if len(g.les) == 0 || g.count == nil || g.sum == nil {
			return fmt.Errorf("family %s{%s}: incomplete histogram", f.name, key)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				return fmt.Errorf("family %s{%s}: le not increasing", f.name, key)
			}
			if g.cums[i] < g.cums[i-1] {
				return fmt.Errorf("family %s{%s}: buckets not cumulative", f.name, key)
			}
		}
		if !math.IsInf(g.les[len(g.les)-1], 1) {
			return fmt.Errorf("family %s{%s}: missing +Inf bucket", f.name, key)
		}
		if g.cums[len(g.cums)-1] != *g.count {
			return fmt.Errorf("family %s{%s}: +Inf bucket %v != count %v", f.name, key, g.cums[len(g.cums)-1], *g.count)
		}
	}
	return nil
}

// parsePromSample decodes one "name{labels} value" line.
func parsePromSample(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	s.name = line[:i]
	if !validPromName(s.name) {
		return s, fmt.Errorf("bad sample name in %q", line)
	}
	if i < len(line) && line[i] == '{' {
		i++
		for {
			j := i
			for j < len(line) && isLabelChar(line[j], j == i) {
				j++
			}
			key := line[i:j]
			if key == "" || j+1 >= len(line) || line[j] != '=' || line[j+1] != '"' {
				return s, fmt.Errorf("bad label syntax in %q", line)
			}
			j += 2
			var val strings.Builder
			for j < len(line) && line[j] != '"' {
				if line[j] == '\\' && j+1 < len(line) {
					switch line[j+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return s, fmt.Errorf("bad escape in %q", line)
					}
					j += 2
					continue
				}
				val.WriteByte(line[j])
				j++
			}
			if j >= len(line) {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			if _, dup := s.labels[key]; dup {
				return s, fmt.Errorf("duplicate label %q in %q", key, line)
			}
			s.labels[key] = val.String()
			j++ // closing quote
			if j < len(line) && line[j] == ',' {
				i = j + 1
				continue
			}
			if j < len(line) && line[j] == '}' {
				i = j + 1
				break
			}
			return s, fmt.Errorf("bad label list in %q", line)
		}
	}
	if i >= len(line) || line[i] != ' ' {
		return s, fmt.Errorf("missing value separator in %q", line)
	}
	v, err := parsePromValue(line[i+1:])
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.value = v
	return s, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func isNameChar(c byte, first bool) bool {
	alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
	return alpha || (!first && c >= '0' && c <= '9')
}

func isLabelChar(c byte, first bool) bool {
	alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
	return alpha || (!first && c >= '0' && c <= '9')
}
