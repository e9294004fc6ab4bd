package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles the tail rule chooses from, highest
// first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// rank returns the nearest-rank index (1-based) of percentile p among n
// sorted samples: the smallest rank r with r/n >= p/100.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above percentile p's rank.
func beyond(p float64, n int) int { return n - rank(p, n) }

// tailPercentile is the tail rule: the highest ladder percentile, at or
// below limit, that leaves at least ten samples beyond it at n samples.
// limit caps the rule where a workload's extreme percentiles do not hold
// steady. When even the median leaves fewer than ten, the median is used
// and the caller prints the short count.
func tailPercentile(n int, limit float64) float64 {
	for _, p := range tailLadder {
		if p <= limit && beyond(p, n) >= 10 {
			return p
		}
	}
	return 50
}

// passLatency summarizes a run's latencies pass by pass, each pass being
// one measurement of the same population: it returns the median over the
// passes of each pass's median, and of each pass's tail — the percentile
// the tail rule picks at one pass's op count, also returned. A burst of
// host noise that slows a pass or two moves neither median.
func passLatency(passes [][]float64, limit float64) (lat, tail, p float64) {
	p = tailPercentile(len(passes[0]), limit)
	var meds, tails []float64
	for _, xs := range passes {
		s := sorted(xs)
		meds = append(meds, median(s))
		tails = append(tails, percentile(s, p))
	}
	return median(meds), median(tails), p
}

// tailNote renders the tail rule's choice for the run's output: the
// percentile, the sample count it is taken over (one pass), and how many
// samples lie beyond it.
func tailNote(p float64, n int) string {
	return fmt.Sprintf("p%g of %d samples (%d beyond)", p, n, beyond(p, n))
}

// percentile returns the nearest-rank percentile p of xs, which must be
// sorted ascending and non-empty.
func percentile(xs []float64, p float64) float64 {
	return xs[rank(p, len(xs))-1]
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// pct is percentile over an unsorted sample; 0 for an empty one.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(sorted(xs), p)
}

// median is the middle of xs (the mean of the two middle values for an even
// count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (its
// default "exclusive" method), so a spread printed here matches one
// computed from the same values in Python. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spreadOf renders a sample's minimum, median and maximum.
func spreadOf(xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	s := sorted(xs)
	return fmt.Sprintf("min %.4g median %.4g max %.4g", s[0], median(s), s[len(s)-1])
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
