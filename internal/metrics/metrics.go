// Package metrics provides the small statistical toolkit the experiment
// harness uses: empirical CDFs, percentiles, duration-weighted availability
// accounting, and fixed-width text tables that mirror the rows the paper
// reports.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample is an ordered collection of float64 observations.
type Sample struct {
	sorted bool
	vals   []float64
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// AddDuration appends a duration observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N reports the number of observations.
func (s *Sample) N() int { return len(s.vals) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns NaN for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := p / 100 * float64(len(s.vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 {
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum
}

// Min returns the smallest observation, or NaN for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.vals[0]
}

// Max returns the largest observation, or NaN for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.vals[len(s.vals)-1]
}

// FractionAtMost reports the fraction of observations <= x.
func (s *Sample) FractionAtMost(x float64) float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	// First index with value > x.
	i := sort.SearchFloat64s(s.vals, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.vals))
}

// CDFPoint is one (x, cumulative fraction) point of an empirical CDF.
type CDFPoint struct {
	X    float64
	Frac float64
}

// CDF returns the empirical CDF evaluated at the given x values.
func (s *Sample) CDF(xs []float64) []CDFPoint {
	pts := make([]CDFPoint, 0, len(xs))
	for _, x := range xs {
		pts = append(pts, CDFPoint{X: x, Frac: s.FractionAtMost(x)})
	}
	return pts
}

// WeightedCDF returns, for each x, the fraction of total weight contributed
// by observations <= x, weighting each observation by itself. The paper uses
// this for "fraction of total unreachability" in Fig. 1: an outage's weight
// is its duration.
func (s *Sample) WeightedCDF(xs []float64) []CDFPoint {
	s.sort()
	total := s.Sum()
	pts := make([]CDFPoint, 0, len(xs))
	for _, x := range xs {
		w := 0.0
		for _, v := range s.vals {
			if v > x {
				break
			}
			w += v
		}
		frac := math.NaN()
		if total > 0 {
			frac = w / total
		}
		pts = append(pts, CDFPoint{X: x, Frac: frac})
	}
	return pts
}

// LogSpace returns n points logarithmically spaced in [lo, hi].
func LogSpace(lo, hi float64, n int) []float64 {
	if n < 2 || lo <= 0 || hi <= lo {
		return []float64{lo, hi}
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
	}
	out[n-1] = hi
	return out
}

// Counter tallies named boolean outcomes, e.g. "found alternate path".
type Counter struct {
	Hits  int
	Total int
}

// Observe records one outcome.
func (c *Counter) Observe(hit bool) {
	c.Total++
	if hit {
		c.Hits++
	}
}

// Fraction reports Hits/Total, or NaN when nothing was observed.
func (c *Counter) Fraction() float64 {
	if c.Total == 0 {
		return math.NaN()
	}
	return float64(c.Hits) / float64(c.Total)
}

// Percent reports the fraction as a percentage.
func (c *Counter) Percent() float64 { return c.Fraction() * 100 }

// String formats the counter as "hits/total (pct%)".
func (c *Counter) String() string {
	return fmt.Sprintf("%d/%d (%.1f%%)", c.Hits, c.Total, c.Percent())
}

// Table accumulates rows of an experiment report and renders them with
// aligned columns, one row per line, suitable for diffing against the
// numbers the paper publishes.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows reports the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, 0)
	all := make([][]string, 0, len(t.rows)+1)
	if len(t.Header) > 0 {
		all = append(all, t.Header)
	}
	all = append(all, t.rows...)
	for _, row := range all {
		for i, cell := range row {
			for len(widths) <= i {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range all {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 && len(t.Header) > 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
