package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or NaN for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// windows counts a load phase's completions in consecutive windows of
// a fixed width. Only whole windows inside the phase exist: a completion
// in the trailing partial window, or after the phase while the last
// answers drain, is not counted.
type windows struct {
	width  time.Duration
	counts []int
}

func newWindows(width, phase time.Duration) windows {
	return windows{width: width, counts: make([]int, max(int(phase/width), 0))}
}

// add counts one completion at the given offset from the phase start.
func (w *windows) add(at time.Duration) {
	if i := int(at / w.width); at >= 0 && i < len(w.counts) {
		w.counts[i]++
	}
}

// merge adds another connection's counts of the same phase.
func (w *windows) merge(o windows) {
	if w.counts == nil {
		w.width, w.counts = o.width, make([]int, len(o.counts))
	}
	for i, n := range o.counts {
		w.counts[i] += n
	}
}

// perSecond returns each window's completion rate.
func (w windows) perSecond() []float64 {
	out := make([]float64, len(w.counts))
	for i, n := range w.counts {
		out[i] = float64(n) / w.width.Seconds()
	}
	return out
}

// asUnit converts durations to floats counted in the given unit.
func asUnit(unit time.Duration, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
