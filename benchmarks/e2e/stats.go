package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: 32 sub-buckets
// per power of two, so a bucket is at most 3.1 % wide and quantiles are
// interpolated inside it. Its size is fixed, which keeps the recorder's
// memory independent of how many operations a run completes — peak RSS
// must not move because the system got faster.
type hist struct {
	counts [60 * 32]uint32
	n      uint64
}

func bucketOf(ns uint64) int {
	if ns < 32 {
		return int(ns)
	}
	e := bits.Len64(ns) - 1 // >= 5
	return (e-4)*32 + int((ns>>(e-5))&31)
}

// bucketBounds returns the lower bound and width of bucket i.
func bucketBounds(i int) (lo, width float64) {
	if i < 32 {
		return float64(i), 1
	}
	e := i/32 + 4
	return float64(uint64(32+i%32) << (e - 5)), float64(uint64(1) << (e - 5))
}

func (h *hist) add(d time.Duration) {
	ns := uint64(max(d, 0))
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0..1) in nanoseconds, NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= rank {
			lo, width := bucketBounds(i)
			return lo + width*(rank-cum)/float64(c)
		} else {
			cum = next
		}
	}
	lo, width := bucketBounds(len(h.counts) - 1)
	return lo + width
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN when empty. (The benchmark keeps its own arithmetic: its
// ruler must not change when internal/metrics, which it measures, does.)
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the "exclusive" method), so the spreads printed by --aa are the ones the
// acceptance driver computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // as Python does: taken after clamping j, so it may extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// iqrShare is (q3-q1)/median, the run-to-run spread the driver bounds.
func iqrShare(xs []float64) float64 {
	if len(xs) < 4 { // the quartiles of fewer values are extrapolations
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
