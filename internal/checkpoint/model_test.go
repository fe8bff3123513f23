package checkpoint

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/letgo-hpc/letgo/internal/stats"
)

func sampleParams() Params {
	app, _ := PaperAppByName("LULESH")
	return ParamsFor(app, 120, 0.10, 21600)
}

const testHorizon = 2 * 365 * 24 * 3600.0

func TestParamsValidation(t *testing.T) {
	good := sampleParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.TChk = 0 },
		func(p *Params) { p.MTBFaults = -1 },
		func(p *Params) { p.PCrash = 1.5 },
		func(p *Params) { p.PV = -0.1 },
		func(p *Params) { p.PVPrime = 2 },
		func(p *Params) { p.PLetGo = -1 },
		func(p *Params) { p.TLetGo = -5 },
	}
	for i, mut := range bad {
		p := sampleParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	p := sampleParams()
	if p.TSync() != 12 || p.TV() != 1.2 || p.TRecover() != 120 {
		t.Errorf("overheads: sync=%v tv=%v tr=%v", p.TSync(), p.TV(), p.TRecover())
	}
	if p.MTBF() <= p.MTBFaults {
		t.Error("MTBF (crashes) should exceed MTBFaults")
	}
	if p.MTBFLetGo() <= p.MTBF() {
		t.Error("LetGo must lengthen the effective MTBF")
	}
	// Zero crash probability: infinite MTBF, huge Young interval.
	p.PCrash = 0
	if !math.IsInf(p.MTBF(), 1) {
		t.Error("MTBF should be +Inf with PCrash=0")
	}
	p = sampleParams()
	p.PLetGo = 1
	p.PVPrime = 1
	if !math.IsInf(p.MTBFLetGo(), 1) {
		t.Error("MTBFLetGo should be +Inf when every crash is elided and verifies")
	}
}

func TestYoungFormula(t *testing.T) {
	// sqrt(2 * 120 * 43200) ≈ 3221.
	got := Young(120, 43200)
	if math.Abs(got-math.Sqrt(2*120*43200)) > 1e-9 {
		t.Errorf("Young = %v", got)
	}
	// Monotone in both arguments.
	if Young(120, 43200) >= Young(1200, 43200) {
		t.Error("Young not monotone in TChk")
	}
	if Young(120, 43200) >= Young(120, 86400) {
		t.Error("Young not monotone in MTBF")
	}
}

func TestIntervalFor(t *testing.T) {
	p := sampleParams()
	if p.IntervalFor(true) <= p.IntervalFor(false) {
		t.Error("LetGo arm should checkpoint less often (longer interval)")
	}
	p.Interval = 777
	if p.IntervalFor(false) != 777 || p.IntervalFor(true) != 777 {
		t.Error("explicit interval ignored")
	}
}

func TestSimulationBasics(t *testing.T) {
	p := sampleParams()
	rng := stats.NewRNG(1)
	std, err := Simulate(p, rng, testHorizon, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if std.Efficiency() <= 0 || std.Efficiency() >= 1 {
		t.Errorf("standard efficiency = %v, want (0,1)", std.Efficiency())
	}
	if std.Faults == 0 || std.Crashes == 0 || std.Checkpoints == 0 {
		t.Errorf("counters look dead: %+v", std)
	}
	if std.Crashes > std.Faults {
		t.Error("more crashes than faults")
	}
	if std.Elided != 0 || std.GaveUp != 0 {
		t.Error("standard model used LetGo counters")
	}

	lg, err := Simulate(p, stats.NewRNG(2), testHorizon, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Efficiency() <= 0 || lg.Efficiency() >= 1 {
		t.Errorf("letgo efficiency = %v", lg.Efficiency())
	}
	if lg.Elided == 0 {
		t.Error("LetGo model elided nothing")
	}
}

func TestLetGoImprovesEfficiency(t *testing.T) {
	// The headline Section-7 result: across the paper's apps and
	// checkpoint costs, the LetGo arm is at least as efficient, with a
	// visible gain at high checkpoint cost.
	for _, app := range PaperApps() {
		for _, tchk := range []float64{120, 1200} {
			p := ParamsFor(app, tchk, 0.10, 21600)
			std, lg, err := CompareArms(p, stats.NewRNG(42), testHorizon, nil)
			if err != nil {
				t.Fatal(err)
			}
			if lg.Efficiency() < std.Efficiency()-0.005 {
				t.Errorf("%s tchk=%v: letgo %.4f < standard %.4f",
					app.Name, tchk, lg.Efficiency(), std.Efficiency())
			}
		}
	}
	// High checkpoint cost: the gain must be substantial (paper: up to
	// ~11 absolute points at T_chk=1200).
	app, _ := PaperAppByName("LULESH")
	p := ParamsFor(app, 1200, 0.10, 21600)
	std, lg, err := CompareArms(p, stats.NewRNG(7), testHorizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gain := lg.Efficiency() - std.Efficiency(); gain < 0.03 {
		t.Errorf("LULESH gain at tchk=1200 = %.4f, want >= 0.03", gain)
	}
}

func TestEfficiencyDecreasesWithCheckpointCost(t *testing.T) {
	app, _ := PaperAppByName("SNAP")
	pts, err := SweepCheckpointCostModelTraced(app, []float64{12, 120, 1200}, nil, 0.10, 21600, 5, testHorizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Standard >= pts[i-1].Standard {
			t.Errorf("standard efficiency should fall with TChk: %+v", pts)
		}
		if pts[i].LetGo >= pts[i-1].LetGo {
			t.Errorf("letgo efficiency should fall with TChk: %+v", pts)
		}
	}
	// The absolute gain grows with checkpoint cost (paper's observation).
	if pts[2].Gain() <= pts[0].Gain() {
		t.Errorf("gain should grow with TChk: %+v", pts)
	}
}

func TestFigure8ScalingTrends(t *testing.T) {
	app, _ := PaperAppByName("CLAMR")
	pts, err := Figure8(app, 1200, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Efficiency decreases with scale for both arms...
	for i := 1; i < len(pts); i++ {
		if pts[i].Standard >= pts[i-1].Standard || pts[i].LetGo >= pts[i-1].LetGo {
			t.Errorf("efficiency should fall with scale: %+v", pts)
		}
	}
	// ...and the LetGo arm degrades more slowly (paper: "the rate of
	// decrease of efficiency is lower for the system with LetGo").
	stdDrop := pts[0].Standard - pts[2].Standard
	lgDrop := pts[0].LetGo - pts[2].LetGo
	if lgDrop >= stdDrop {
		t.Errorf("letgo drop %v >= standard drop %v", lgDrop, stdDrop)
	}
}

func TestPaperProbabilities(t *testing.T) {
	apps := PaperApps()
	if len(apps) != 5 {
		t.Fatalf("paper apps = %d", len(apps))
	}
	var sumCont float64
	for _, a := range apps {
		if a.PCrash <= 0 || a.PCrash >= 1 {
			t.Errorf("%s PCrash = %v", a.Name, a.PCrash)
		}
		if a.PV <= 0.9 {
			t.Errorf("%s PV = %v (paper acceptance checks pass most latent faults)", a.Name, a.PV)
		}
		if a.PVPrime <= 0.5 || a.PVPrime > 1 {
			t.Errorf("%s PVPrime = %v", a.Name, a.PVPrime)
		}
		sumCont += a.PLetGo
	}
	// Paper: mean continuability ~62%.
	mean := sumCont / float64(len(apps))
	if mean < 0.55 || mean > 0.75 {
		t.Errorf("mean continuability from Table 3 = %v, want ~0.62", mean)
	}
	// LULESH continuability ~67% per its Table 3 row.
	lulesh, _ := PaperAppByName("LULESH")
	if math.Abs(lulesh.PLetGo-0.675) > 0.02 {
		t.Errorf("LULESH PLetGo = %v", lulesh.PLetGo)
	}
	if _, ok := PaperAppByName("NOPE"); ok {
		t.Error("unknown app found")
	}
	hpl := PaperHPL()
	if hpl.PLetGo != 0.70 || hpl.PCrash != 0.34 {
		t.Errorf("HPL paper probabilities wrong: %+v", hpl)
	}
}

func TestHPLGainIsMarginal(t *testing.T) {
	// Section 8: "the efficiency of the standard C/R scheme applied to
	// HPL is around 40%, and LetGo-E only marginally improves efficiency"
	// (in their lowest-efficiency configuration). The shape we need:
	// HPL's gain stays well below the iterative apps' gain.
	hpl := PaperHPL()
	lulesh, _ := PaperAppByName("LULESH")
	pHPL := ParamsFor(hpl, 1200, 0.10, 21600)
	pLUL := ParamsFor(lulesh, 1200, 0.10, 21600)
	stdH, lgH, err := CompareArms(pHPL, stats.NewRNG(3), testHorizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	stdL, lgL, err := CompareArms(pLUL, stats.NewRNG(3), testHorizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	gainHPL := lgH.Efficiency() - stdH.Efficiency()
	gainLUL := lgL.Efficiency() - stdL.Efficiency()
	if gainHPL >= gainLUL {
		t.Errorf("HPL gain %.4f should be below LULESH gain %.4f", gainHPL, gainLUL)
	}
}

func TestSimulationDeterminism(t *testing.T) {
	p := sampleParams()
	a, err := Simulate(p, stats.NewRNG(9), testHorizon, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(p, stats.NewRNG(9), testHorizon, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same seed produced different simulations")
	}
}

func TestEfficiencyBoundsProperty(t *testing.T) {
	// Property: for any sane parameter set, efficiency lies in (0, 1) for
	// both models.
	f := func(tchkSel, pcrash, pletgo, pv uint8) bool {
		tchk := []float64{12, 120, 1200}[int(tchkSel)%3]
		p := Params{
			TChk:      tchk,
			TSyncFrac: 0.1,
			TVFrac:    0.01,
			TLetGo:    5,
			MTBFaults: 21600,
			PCrash:    0.2 + 0.6*float64(pcrash)/255,
			PV:        0.9 + 0.0999*float64(pv)/255,
			PVPrime:   0.5 + 0.5*float64(pv)/255,
			PLetGo:    float64(pletgo) / 255 * 0.99,
		}
		rng := stats.NewRNG(uint64(tchkSel)<<24 | uint64(pcrash)<<16 | uint64(pletgo)<<8 | uint64(pv))
		std, err := Simulate(p, rng, testHorizon/4, false, nil)
		if err != nil {
			return false
		}
		lg, err := Simulate(p, rng, testHorizon/4, true, nil)
		if err != nil {
			return false
		}
		return std.Efficiency() > 0 && std.Efficiency() < 1 &&
			lg.Efficiency() > 0 && lg.Efficiency() < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSweepScaleValidation(t *testing.T) {
	app, _ := PaperAppByName("SNAP")
	if _, err := SweepScaleTraced(app, 120, 0.1, []int{0}, 1, testHorizon, nil); err == nil {
		t.Error("zero node count accepted")
	}
}
