package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestFreqRoundTrip(t *testing.T) {
	f := DefaultFreq
	cases := []time.Duration{
		time.Nanosecond, time.Microsecond, time.Millisecond,
		64 * time.Millisecond, time.Second, 90 * time.Second,
	}
	for _, d := range cases {
		c := f.Cycles(d)
		back := f.Duration(c)
		if diff := d - back; diff < 0 || diff > time.Nanosecond {
			t.Errorf("round trip %v -> %v -> %v", d, c, back)
		}
	}
}

func TestFreqKnownValues(t *testing.T) {
	f := NewFreq(2_600_000_000)
	if got := f.Cycles(64 * time.Millisecond); got != 166_400_000 {
		t.Errorf("64ms at 2.6GHz = %d cycles, want 166400000", got)
	}
	if got := f.Millis(166_400_000); math.Abs(got-64) > 1e-9 {
		t.Errorf("Millis = %g, want 64", got)
	}
	if got := f.Nanos(26); math.Abs(got-10) > 1e-9 {
		t.Errorf("Nanos(26) = %g, want 10", got)
	}
	if got := f.PerSecond(2_600_000, 2_600_000_000); math.Abs(got-2_600_000) > 1e-6 {
		t.Errorf("PerSecond = %g", got)
	}
}

func TestFreqZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFreq(0) did not panic")
		}
	}()
	NewFreq(0)
}

func TestCyclesMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min wrong")
	}
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max wrong")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d identical values of 1000", same)
	}
}

func TestRandUint64nBounds(t *testing.T) {
	r := NewRand(7)
	err := quick.Check(func(n uint64) bool {
		n = n%1000 + 1
		v := r.Uint64n(n)
		return v < n
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestRandUint64nUniform(t *testing.T) {
	r := NewRand(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	for i, c := range counts {
		if c < draws/n*8/10 || c > draws/n*12/10 {
			t.Errorf("bucket %d count %d far from %d", i, c, draws/n)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestRandBoolExtremes(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	trues := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.25) {
			trues++
		}
	}
	if trues < 23000 || trues > 27000 {
		t.Errorf("Bool(0.25) true %d/100000", trues)
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(9)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandGeometricMean(t *testing.T) {
	r := NewRand(13)
	const p = 0.1
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / n
	want := (1 - p) / p // 9
	if math.Abs(mean-want) > 0.5 {
		t.Errorf("geometric mean %g, want ~%g", mean, want)
	}
}

func TestRandSplitIndependence(t *testing.T) {
	parent := NewRand(1)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams matched %d/1000 times", same)
	}
}

// TestRandSplitStreamsUncorrelated is the stronger cousin of
// TestRandSplitIndependence: beyond not colliding, sibling streams (and the
// parent they were split from) should show no linear correlation.
func TestRandSplitStreamsUncorrelated(t *testing.T) {
	parent := NewRand(42)
	a := parent.Split()
	b := parent.Split()
	const n = 20000
	sample := func(r *Rand) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = r.Float64()
		}
		return out
	}
	xs, ys, ps := sample(a), sample(b), sample(parent)
	for _, pair := range []struct {
		name string
		a, b []float64
	}{
		{"sibling/sibling", xs, ys},
		{"parent/child", ps, xs},
	} {
		if c := Correlation(pair.a, pair.b); math.Abs(c) > 0.03 {
			t.Errorf("%s correlation = %g, want ~0", pair.name, c)
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g, want 5", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 1e-12 {
		t.Errorf("StdDev = %g, want 2", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-slice stats should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%g = %g, want %g", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if c := Correlation(xs, ys); math.Abs(c-1) > 1e-12 {
		t.Errorf("perfect positive correlation = %g", c)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if c := Correlation(xs, neg); math.Abs(c+1) > 1e-12 {
		t.Errorf("perfect negative correlation = %g", c)
	}
	if c := Correlation(xs, []float64{3, 3, 3, 3, 3}); c != 0 {
		t.Errorf("constant series correlation = %g, want 0", c)
	}
	if Correlation(xs, ys[:3]) != 0 {
		t.Error("mismatched length should give 0")
	}
}

func TestMatchFraction(t *testing.T) {
	a := []bool{true, false, true, true}
	b := []bool{true, true, true, false}
	if got := MatchFraction(a, b); got != 0.5 {
		t.Errorf("MatchFraction = %g, want 0.5", got)
	}
	if MatchFraction(nil, nil) != 0 {
		t.Error("empty MatchFraction should be 0")
	}
	if MatchFraction(a, a) != 1 {
		t.Error("self MatchFraction should be 1")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)
	h.Add(42)
	for i, b := range h.Buckets {
		if b != 1 {
			t.Errorf("bucket %d = %d, want 1", i, b)
		}
	}
	if h.Under != 1 || h.Over != 1 {
		t.Errorf("under/over = %d/%d, want 1/1", h.Under, h.Over)
	}
	if h.N != 12 {
		t.Errorf("N = %d", h.N)
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram did not panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestCounter(t *testing.T) {
	var c Counter
	if c.Mean() != 0 {
		t.Error("empty counter mean should be 0")
	}
	c.Add(2)
	c.Add(4)
	if c.Mean() != 3 || c.Count != 2 {
		t.Errorf("counter = %+v", c)
	}
}

func TestRandShuffle(t *testing.T) {
	r := NewRand(21)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := map[int]bool{}
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != len(orig) {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
	same := true
	for i := range xs {
		if xs[i] != orig[i] {
			same = false
		}
	}
	if same {
		t.Error("shuffle left the identity permutation (possible but vanishingly unlikely)")
	}
}

func TestCyclesString(t *testing.T) {
	if Cycles(42).String() != "42cyc" {
		t.Errorf("String = %q", Cycles(42).String())
	}
}
