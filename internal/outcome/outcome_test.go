package outcome

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClassifyLeaves(t *testing.T) {
	cases := []struct {
		r    RunRecord
		want Class
	}{
		{RunRecord{Finished: true, CheckPassed: true, MatchesGolden: true}, Benign},
		{RunRecord{Finished: true, CheckPassed: true}, SDC},
		{RunRecord{Finished: true}, Detected},
		{RunRecord{}, Crash},
		{RunRecord{Repaired: true}, DoubleCrash},
		{RunRecord{Finished: true, Repaired: true, CheckPassed: true, MatchesGolden: true}, CBenign},
		{RunRecord{Finished: true, Repaired: true, CheckPassed: true}, CSDC},
		{RunRecord{Finished: true, Repaired: true}, CDetected},
		{RunRecord{Hang: true}, Hang},
		{RunRecord{Hang: true, Repaired: true}, Hang},
	}
	for _, c := range cases {
		if got := Classify(c.r); got != c.want {
			t.Errorf("Classify(%+v) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		want := c == CHang || c == HarnessFault
		if c.Quarantined() != want {
			t.Errorf("%v.Quarantined() = %v, want %v", c, !want, want)
		}
	}
}

func TestParseClassRoundTrip(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseClass("C-Bogus"); err == nil {
		t.Error("ParseClass accepted an unknown name")
	}
}

func TestClassNames(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == "" || c.String()[0] == 'c' {
			t.Errorf("class %d has bad name %q", c, c.String())
		}
	}
}

func TestCountsAndFractions(t *testing.T) {
	var c Counts
	for i := 0; i < 25; i++ {
		c.Add(Crash)
	}
	for i := 0; i < 50; i++ {
		c.Add(CBenign)
	}
	for i := 0; i < 20; i++ {
		c.Add(Benign)
	}
	for i := 0; i < 5; i++ {
		c.Add(CSDC)
	}
	if c.N != 100 {
		t.Fatalf("N = %d", c.N)
	}
	if c.Frac(CBenign) != 0.5 || c.Frac(Crash) != 0.25 {
		t.Error("fractions wrong")
	}
	if c.CrashTotal() != 80 {
		t.Errorf("crash total = %d, want 80", c.CrashTotal())
	}
	m := ComputeMetrics(&c)
	if math.Abs(m.Continuability-55.0/80) > 1e-12 {
		t.Errorf("continuability = %v", m.Continuability)
	}
	if math.Abs(m.ContinuedCorrect-50.0/80) > 1e-12 {
		t.Errorf("continued_correct = %v", m.ContinuedCorrect)
	}
	if math.Abs(m.ContinuedSDC-5.0/80) > 1e-12 {
		t.Errorf("continued_sdc = %v", m.ContinuedSDC)
	}
	if m.ContinuedDetected != 0 {
		t.Errorf("continued_detected = %v", m.ContinuedDetected)
	}
}

func TestMetricsIdentityProperty(t *testing.T) {
	// Property (Section 5.3): Continuability is the sum of the other
	// three metrics, and all lie in [0, 1].
	f := func(crash, dc, cb, cs, cd uint8) bool {
		var c Counts
		add := func(cl Class, n uint8) {
			for i := uint8(0); i < n; i++ {
				c.Add(cl)
			}
		}
		add(Crash, crash)
		add(DoubleCrash, dc)
		add(CBenign, cb)
		add(CSDC, cs)
		add(CDetected, cd)
		m := ComputeMetrics(&c)
		sum := m.ContinuedCorrect + m.ContinuedDetected + m.ContinuedSDC
		if math.Abs(m.Continuability-sum) > 1e-9 {
			return false
		}
		for _, v := range []float64{m.Continuability, m.ContinuedCorrect, m.ContinuedDetected, m.ContinuedSDC} {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMerge(t *testing.T) {
	var a, b Counts
	a.Add(Benign)
	a.Add(Crash)
	b.Add(Crash)
	b.Add(CSDC)
	a.Merge(b)
	if a.N != 4 || a.By[Crash] != 2 || a.By[CSDC] != 1 || a.By[Benign] != 1 {
		t.Errorf("merge result = %+v", a)
	}
}

func TestEmptyCounts(t *testing.T) {
	var c Counts
	if c.Frac(Benign) != 0 {
		t.Error("Frac on empty counts")
	}
	if m := ComputeMetrics(&c); m != (Metrics{}) {
		t.Error("metrics on empty counts")
	}
}

func TestCIWiring(t *testing.T) {
	var c Counts
	for i := 0; i < 20000; i++ {
		if i < 200 {
			c.Add(CSDC)
		} else {
			c.Add(Benign)
		}
	}
	ci := c.CI(CSDC)
	if ci.P != 0.01 || ci.HalfCI > 0.002 {
		t.Errorf("ci = %+v", ci)
	}
}
