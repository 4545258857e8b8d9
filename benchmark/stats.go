package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean; NaN for an empty sample.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// windowRate is the window-median rule every timing in this benchmark
// follows: the rate of each equal-work window on its own (ops ÷ wall), then
// the median over windows. A burst of interference from a neighbour on the
// shared host inflates the windows it hits and leaves the median alone,
// where a whole-run ops ÷ wall would absorb all of it.
func windowRate(ws []windowStats) float64 { return median(rates(ws)) }

func rates(ws []windowStats) []float64 {
	out := make([]float64, len(ws))
	for i := range ws {
		out[i] = ws[i].rate()
	}
	return out
}

// pairedRate is the window-median rule for a paired run. Window i of the
// subject and window i of the reference implementation ran interleaved, in
// the same second of the same host, so the ratio of their rates is free of
// that second's weather; the median over windows sheds the odd burst that
// hit one side only. Times nominal — the reference's rate on the reference
// box — it is the rate the subject would make on a host where the
// reference makes exactly nominal.
func pairedRate(subject, ref []windowStats, nominal float64) float64 {
	ratios := make([]float64, len(subject))
	for i := range subject {
		ratios[i] = subject[i].rate() / ref[i].rate()
	}
	return nominal * median(ratios)
}

// allocsPerOp is allocations per op over ws as a whole: Σ mallocs ÷ Σ ops.
// A count needs no defence against bursts; what it needs is to cover the
// same operations in every run, so the caller passes the fixed number of
// windows the simulated statistics use.
func allocsPerOp(ws []windowStats) float64 {
	var mallocs uint64
	ops := 0
	for i := range ws {
		mallocs += ws[i].mallocs
		ops += ws[i].ops
	}
	return float64(mallocs) / float64(ops)
}

// share is a layer's part of one op's host time: how often the op calls
// into the layer times what one call costs the layer itself (nanoseconds).
func share(callsPerOp, selfNs, opNs float64) float64 {
	if opNs <= 0 {
		return 0
	}
	return callsPerOp * selfNs / opNs
}

// selfCost is a call's own cost in nanoseconds: its wall time less the
// time spent in the calls it made into lower layers (count × that layer's
// unit cost). Clamped at zero: on a noisy host a nested estimate can exceed
// the enclosing call.
func selfCost(totalNs float64, nested ...nestedCalls) float64 {
	for _, n := range nested {
		totalNs -= n.perCall * n.unitNs
	}
	return max(totalNs, 0)
}

// nestedCalls is "perCall calls of unitNs each" inside one outer call.
type nestedCalls struct {
	perCall float64
	unitNs  float64
}

// relDiff is |a-b| relative to their mean (0 when both are 0).
func relDiff(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
