package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint64) bool {
		n = n%1000 + 1
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	var sum float64
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / 100000; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(5)
	const mean = 3600.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatal("negative exponential variate")
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Errorf("exp mean = %v, want ~%v", got, mean)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(9)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams collided %d times", same)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestBinomialCI95(t *testing.T) {
	p := BinomialCI95(5000, 10000)
	if math.Abs(p.P-0.5) > 1e-12 {
		t.Errorf("P = %v", p.P)
	}
	// Half width = 1.96 * sqrt(0.25/10000) ≈ 0.0098.
	if math.Abs(p.HalfCI-0.0098) > 0.0002 {
		t.Errorf("HalfCI = %v", p.HalfCI)
	}
	// The paper's regime: 20000 injections, outcome probability ~0.5
	// gives ~0.7% half-width; rare outcomes (1%) give ~0.14%.
	rare := BinomialCI95(200, 20000)
	if rare.HalfCI > 0.002 {
		t.Errorf("rare outcome half-CI = %v, want <= 0.2%%", rare.HalfCI)
	}
	if z := BinomialCI95(0, 0); z.N != 0 || z.P != 0 {
		t.Error("degenerate CI not zeroed")
	}
}

func TestProportionString(t *testing.T) {
	s := BinomialCI95(62, 100).String()
	if s == "" {
		t.Error("empty string")
	}
}

func TestWeibullMeanAndShape(t *testing.T) {
	r := NewRNG(21)
	for _, shape := range []float64{0.7, 1.0, 2.0} {
		const mean = 1000.0
		var sum float64
		const n = 200000
		for i := 0; i < n; i++ {
			v := r.Weibull(shape, mean)
			if v < 0 {
				t.Fatal("negative Weibull variate")
			}
			sum += v
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.03 {
			t.Errorf("shape %v: mean = %v, want ~%v", shape, got, mean)
		}
	}
	// Shape 1 must coincide with the exponential distribution: compare
	// the tail mass above the mean (exp: e^-1 ~ 36.8%).
	r = NewRNG(22)
	above := 0
	for i := 0; i < 100000; i++ {
		if r.Weibull(1, 100) > 100 {
			above++
		}
	}
	if frac := float64(above) / 100000; math.Abs(frac-math.Exp(-1)) > 0.01 {
		t.Errorf("shape-1 tail = %v, want ~%v", frac, math.Exp(-1))
	}
}

func TestWeibullPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Weibull(0, ...) did not panic")
		}
	}()
	NewRNG(1).Weibull(0, 100)
}

func TestQuantile(t *testing.T) {
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile not 0")
	}
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.2, 2}, {0.5, 3}, {0.9, 5}, {1, 5},
		{-1, 1}, {2, 5}, // clamped
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	// The input must not be mutated (Quantile sorts a copy).
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMedianMatchesUpperMedian(t *testing.T) {
	// The 0.5-quantile is the nearest-rank upper median: for even n it
	// picks element n/2 of the sorted order, matching the campaign's
	// historical MedianCrashLatency semantics.
	if got := Quantile([]float64{1, 2, 3, 4}, 0.5); got != 3 {
		t.Errorf("even median = %v, want 3", got)
	}
	if got := Quantile([]float64{7}, 0.5); got != 7 {
		t.Errorf("singleton median = %v", got)
	}
	if got := MedianUint64([]uint64{10, 30, 20, 40}); got != 30 {
		t.Errorf("uint64 even median = %v, want 30", got)
	}
	if got := MedianUint64(nil); got != 0 {
		t.Errorf("empty uint64 median = %v", got)
	}
	if got := QuantileUint64([]uint64{1, 2, 3, 4, 100}, 0.99); got != 100 {
		t.Errorf("p99 = %v, want 100", got)
	}
}
