package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestDigestFollowsSeed pins input determinism: the same seed gives the
// same op list digest, a different seed a different one.
func TestDigestFollowsSeed(t *testing.T) {
	for _, w := range workloadNames {
		digestOf := func(seed int64) string {
			ops, err := genOps(w, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			d, err := ops.digest()
			if err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			return d
		}
		a, b, c := digestOf(7), digestOf(7), digestOf(8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 share digest %s", w, a)
		}
	}
}

// TestTailRule pins the tail rule on synthetic samples: the percentile it
// picks leaves at least ten samples beyond it, the next higher one on the
// ladder (within the cap) would not, and the printed note carries the
// sample count.
func TestTailRule(t *testing.T) {
	for _, limit := range []float64{99.9, 99, 90} {
		for n := 20; n <= 5000; n += 7 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i) // distinct, unsorted
			}
			p := tailPercentile(n, limit)
			if p > limit {
				t.Fatalf("n=%d limit %g: picked p%g above the limit", n, limit, p)
			}
			v := pct(xs, p)
			over := 0
			for _, x := range xs {
				if x > v {
					over++
				}
			}
			if over < 10 || over != beyond(p, n) {
				t.Fatalf("n=%d limit %g: p%g = %g has %d samples beyond it (rule says %d)", n, limit, p, v, over, beyond(p, n))
			}
			for _, q := range tailLadder {
				if q > p && q <= limit && beyond(q, n) >= 10 {
					t.Fatalf("n=%d limit %g: picked p%g but p%g also leaves ten beyond", n, limit, p, q)
				}
			}
			note := tailNote(p, n)
			if !strings.Contains(note, fmt.Sprintf("of %d samples", n)) || !strings.Contains(note, fmt.Sprintf("(%d beyond)", over)) {
				t.Fatalf("n=%d: note %q lacks the sample count", n, note)
			}
		}
	}
	if p := tailPercentile(100000, 99); p != 99 {
		t.Errorf("100000 samples under a p99 cap: picked p%g", p)
	}
	if p := tailPercentile(54, 90); p != 80 {
		t.Errorf("54 samples: picked p%g, want p80 (p90 leaves only 5 beyond)", p)
	}
}

// TestQuartilesMatchPython pins the repeat summary's quartiles to Python's
// statistics.quantiles(xs, n=4), which computes [2.75, 5.5, 8.25] for 1..10
// and [1.25, 2.5, 3.75] for 1..4.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}
