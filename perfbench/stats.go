package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the first quartile, median and third quartile of xs
// by the default (exclusive) method of Python's
// statistics.quantiles(xs, n=4), the rule the benchmark's spread is judged
// by. A single value is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// geomean returns the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio divides, returning 0 for a zero denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
