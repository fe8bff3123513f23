package checkpoint

import (
	"math"
	"testing"

	"github.com/letgo-hpc/letgo/internal/stats"
)

func TestDalyVsYoung(t *testing.T) {
	// For small d/M the two estimates nearly coincide; Daly subtracts the
	// checkpoint cost, landing slightly below Young.
	d, m := 120.0, 43200.0
	y, da := Young(d, m), Daly(d, m)
	if math.Abs(y-da)/y > 0.05 {
		t.Errorf("Young %v vs Daly %v differ by more than 5%%", y, da)
	}
	if da >= y {
		t.Errorf("Daly %v should sit below Young %v at small d/M", da, y)
	}
	// Degenerate regime: d >= 2M clamps to MTBF.
	if got := Daly(1e6, 100); got != 100 {
		t.Errorf("Daly clamp = %v", got)
	}
	// Infinite MTBF does not blow up.
	if v := Daly(120, math.Inf(1)); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("Daly(inf) = %v", v)
	}
}

func TestIntervalRule(t *testing.T) {
	p := sampleParams()
	p.Rule = RuleDaly
	if p.IntervalFor(false) >= sampleParams().IntervalFor(false) {
		t.Error("Daly rule should pick a slightly shorter interval")
	}
	if RuleYoung.String() != "young" || RuleDaly.String() != "daly" {
		t.Error("rule names")
	}
}

func TestDalyEfficiencyComparableToYoung(t *testing.T) {
	// El-Sayed & Schroeder (the paper's justification for using Young):
	// the two rules perform nearly identically. Verify within 1 point.
	app, _ := PaperAppByName("LULESH")
	base := ParamsFor(app, 1200, 0.10, 21600)
	y, err := Simulate(base, stats.NewRNG(3), testHorizon, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	base.Rule = RuleDaly
	d, err := Simulate(base, stats.NewRNG(3), testHorizon, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y.Efficiency()-d.Efficiency()) > 0.01 {
		t.Errorf("Young %.4f vs Daly %.4f differ by more than a point",
			y.Efficiency(), d.Efficiency())
	}
}

func TestWeibullArrivals(t *testing.T) {
	// Heavy-tailed arrivals (shape < 1) cluster failures; the model must
	// stay well-defined and LetGo must still help.
	app, _ := PaperAppByName("CLAMR")
	p := ParamsFor(app, 1200, 0.10, 21600)
	p.WeibullShape = 0.7
	std, lg, err := CompareArms(p, stats.NewRNG(5), testHorizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	if std.Efficiency() <= 0 || std.Efficiency() >= 1 {
		t.Fatalf("weibull std efficiency = %v", std.Efficiency())
	}
	if lg.Efficiency() <= std.Efficiency() {
		t.Errorf("LetGo gain vanished under Weibull arrivals: %.4f vs %.4f",
			lg.Efficiency(), std.Efficiency())
	}
	// Invalid shape rejected.
	p.WeibullShape = -1
	if _, err := Simulate(p, stats.NewRNG(1), 1e6, false, nil); err == nil {
		t.Error("negative shape accepted")
	}
}
