package main

import (
	"sort"
	"time"
)

// median returns the middle value (the mean of the two middle values for an
// even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples the tail rule leaves above the reported
// value.
const tailBeyond = 10

// Tail is the highest percentile of a sample set that still has tailBeyond
// samples above it, with the sample count it came from.
type Tail struct {
	Value      float64 `json:"value"`      // the sample at that percentile
	Percentile float64 `json:"percentile"` // share of samples at or below Value, in percent
	Samples    int     `json:"samples"`
}

// tail applies the tail rule: with n samples sorted ascending, it reports the
// sample that has exactly tailBeyond samples above it. With tailBeyond or
// fewer samples there is no such sample, and only the count is reported.
func tail(xs []float64) Tail {
	n := len(xs)
	t := Tail{Samples: n}
	if n <= tailBeyond {
		return t
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t.Value = s[n-tailBeyond-1]
	t.Percentile = 100 * float64(n-tailBeyond) / float64(n)
	return t
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
