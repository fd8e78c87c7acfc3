package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of v by linear
// interpolation between order statistics; NaN for empty v.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 0.5 percentile.
func median(v []float64) float64 { return percentile(v, 0.5) }

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) (the default exclusive method) gives
// them, which is how the benchmark's spread rule is defined. With one
// value all three equal it; NaN for empty v.
func quartiles(v []float64) (q1, q2, q3 float64) {
	n := len(v)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// rateGroups is how many consecutive groups a phase's completions are
// split into for its throughput.
const rateGroups = 40

// groupRates splits the sorted event times into groups of consecutive
// events and returns each group's rate in amount per second (each event
// carries amount). The first group is timed from start. Reporting the
// median of these rates keeps a run's throughput steady against
// episodes in which the shared host runs the benchmark slowly.
func groupRates(start time.Time, at []time.Time, amount float64, groups int) []float64 {
	size := len(at) / groups
	if size < 1 {
		size = 1
	}
	var rates []float64
	prev := start
	for end := size; end <= len(at); end += size {
		t := at[end-1]
		if d := t.Sub(prev).Seconds(); d > 0 {
			rates = append(rates, float64(size)*amount/d)
		}
		prev = t
	}
	return rates
}

// latencySlice is the width, in seconds, of the slices a run's latencies
// are grouped into by due time.
const latencySlice = 0.5

// sliceMedians groups values by their timestamps (seconds) into slices
// of the given width and returns the median of each slice holding at
// least minN values, in time order.
func sliceMedians(ts, v []float64, width float64, minN int) []float64 {
	by := map[int][]float64{}
	for i, t := range ts {
		k := int(math.Floor(t / width))
		by[k] = append(by[k], v[i])
	}
	keys := make([]int, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var out []float64
	for _, k := range keys {
		if len(by[k]) >= minN {
			out = append(out, median(by[k]))
		}
	}
	return out
}
