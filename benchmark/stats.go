package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// samples holds raw per-op latencies of successful operations, keyed by op
// class. Percentiles are computed from the sorted raw values, never from
// bucketed histograms.
type samples map[string][]time.Duration

func (s samples) add(class string, d time.Duration) { s[class] = append(s[class], d) }

func (s samples) count() int {
	n := 0
	for _, v := range s {
		n += len(v)
	}
	return n
}

func (s samples) pooled() []time.Duration {
	var all []time.Duration
	for _, v := range s {
		all = append(all, v...)
	}
	return all
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// values and how many values lie strictly beyond that rank.
func percentile[T cmp.Ordered](values []T, p float64) (T, int) {
	if len(values) == 0 {
		var zero T
		return zero, 0
	}
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted) - rank
}

// tailPercentiles are the candidate tail ranks, highest first.
var tailPercentiles = []float64{99, 95, 90}

// tail returns the preferred percentile when it still has at least ten
// samples beyond it, else the highest candidate that does (the lowest
// candidate when none does). It reports the percentile actually used and the
// samples beyond it, so a report never hides a thin tail.
func tail(values []time.Duration, preferred float64) (v time.Duration, used float64, beyond int) {
	v, beyond = percentile(values, preferred)
	if beyond >= 10 {
		return v, preferred, beyond
	}
	for _, p := range tailPercentiles {
		v, beyond = percentile(values, p)
		if beyond >= 10 {
			return v, p, beyond
		}
	}
	return v, tailPercentiles[len(tailPercentiles)-1], beyond
}

// geomeanMedian is the geometric mean over op classes of each class's
// median latency. Classes of very different cost (a 1% projection next to a
// 50% one) each weigh the same, so small shifts in how many of each a run
// completed do not move the figure.
func geomeanMedian(s samples) time.Duration {
	logSum, n := 0.0, 0
	for _, v := range s {
		if len(v) == 0 {
			continue
		}
		m, _ := percentile(v, 50)
		if m <= 0 {
			m = 1
		}
		logSum += math.Log(float64(m))
		n++
	}
	if n == 0 {
		return 0
	}
	return time.Duration(math.Exp(logSum / float64(n)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
