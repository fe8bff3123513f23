// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design decisions in DESIGN.md §5 and
// the two substrate numbers no bench/ probe covers.
//
//	BenchmarkTable3            fault-outcome distribution under LetGo-E (Table 3)
//	BenchmarkFigure5           LetGo-B vs LetGo-E on the four metrics (Figure 5a-d)
//	BenchmarkMonitorOverhead   run time with vs without the monitor (Section 6.2 ¶1)
//	BenchmarkRepairCost        time spent in the modifier per elided crash (Section 6.2 ¶2)
//	BenchmarkFigure7           C/R efficiency vs checkpoint cost (Figure 7)
//	BenchmarkFigure8           C/R efficiency vs system scale (Figure 8)
//	BenchmarkSection8HPL       the direct-method case study (Section 8)
//	BenchmarkAblation*         D1-D5 design-choice ablations
//	BenchmarkInjection         one full rerun-engine injection (bench/ names it)
//	BenchmarkClusterHarness    the executed multi-rank C/R job (E13)
//
// Campaign benchmarks report their headline numbers as custom metrics
// (continuability, SDC rates, efficiency gains) so `go test -bench` output
// doubles as the reproduction record; EXPERIMENTS.md interprets them
// against the paper's numbers.
package letgo

import (
	"fmt"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/checkpoint"
	"github.com/letgo-hpc/letgo/internal/core"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/lang"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/stats"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// benchN is the number of injections per campaign benchmark. The paper
// uses 20000 per app; benchmarks default to a quick-but-meaningful sample
// (raise with: go test -bench Table3 -benchtime 10x for tighter CIs —
// every campaign is deterministic in its seed).
const benchN = 250

func campaign(b *testing.B, appName string, mode InjectionMode, opts *Options) *CampaignResult {
	b.Helper()
	app, ok := AppByName(appName)
	if !ok {
		b.Fatalf("unknown app %s", appName)
	}
	c := &Campaign{App: app, Mode: mode, N: benchN, Seed: 2017, Opts: opts}
	r, err := c.Run()
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable3 regenerates the Table-3 rows: the fault-outcome
// distribution for the five iterative benchmarks under LetGo-E.
func BenchmarkTable3(b *testing.B) {
	for _, app := range IterativeApps() {
		b.Run(app.Name, func(b *testing.B) {
			var r *CampaignResult
			for i := 0; i < b.N; i++ {
				r = campaign(b, app.Name, LetGoE, nil)
			}
			b.ReportMetric(100*r.PCrash, "crash%")
			b.ReportMetric(100*r.Counts.Frac(Benign), "benign%")
			b.ReportMetric(100*r.Counts.Frac(SDC), "sdc%")
			b.ReportMetric(100*r.Counts.Frac(Detected), "detected%")
			b.ReportMetric(100*r.Counts.Frac(DoubleCrash), "dcrash%")
			b.ReportMetric(100*r.Counts.Frac(CBenign), "c_benign%")
			b.ReportMetric(100*r.Counts.Frac(CSDC), "c_sdc%")
			b.ReportMetric(100*r.Counts.Frac(CDetected), "c_detected%")
		})
	}
}

// BenchmarkFigure5 compares LetGo-B and LetGo-E on the four Section-5.3
// metrics for every iterative benchmark (Figure 5a-d).
func BenchmarkFigure5(b *testing.B) {
	for _, app := range IterativeApps() {
		for _, mode := range []InjectionMode{LetGoB, LetGoE} {
			b.Run(fmt.Sprintf("%s/%v", app.Name, mode), func(b *testing.B) {
				var r *CampaignResult
				for i := 0; i < b.N; i++ {
					r = campaign(b, app.Name, mode, nil)
				}
				m := r.Metrics
				b.ReportMetric(m.Continuability, "continuability")
				b.ReportMetric(m.ContinuedDetected, "c_detected")
				b.ReportMetric(m.ContinuedCorrect, "c_correct")
				b.ReportMetric(m.ContinuedSDC, "c_sdc")
			})
		}
	}
}

// BenchmarkMonitorOverhead measures the paper's Section-6.2 claim that
// running under the monitor costs <1%: the same app executed bare and
// under an attached (signal-table-configured, breakpoint-free) debugger.
func BenchmarkMonitorOverhead(b *testing.B) {
	for _, name := range []string{"SNAP", "LULESH"} {
		app, _ := AppByName(name)
		prog, err := app.Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/bare", func(b *testing.B) {
			var retired uint64
			for i := 0; i < b.N; i++ {
				m, err := vm.New(prog, vm.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Run(1 << 30); err != nil {
					b.Fatal(err)
				}
				retired = m.Retired
			}
			b.ReportMetric(float64(retired)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
		})
		b.Run(name+"/monitored", func(b *testing.B) {
			an := pin.Analyze(prog)
			var retired uint64
			for i := 0; i < b.N; i++ {
				m, err := vm.New(prog, vm.Config{})
				if err != nil {
					b.Fatal(err)
				}
				r := core.Attach(m, an, core.Options{Mode: core.ModeEnhanced})
				if res := r.Run(1 << 30); res.Outcome != core.RunCompleted {
					b.Fatalf("monitored run: %+v", res)
				}
				retired = m.Retired
			}
			b.ReportMetric(float64(retired)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// BenchmarkRepairCost measures the time the modifier spends per elided
// crash (the paper's prototype: 2-5 s of gdb/PIN scripting; a native
// implementation is micro-seconds, confirming the paper's argument that
// repair cost is negligible and input-size independent).
func BenchmarkRepairCost(b *testing.B) {
	src := `
		var sink float;
		var junk [8] float;
		func main() {
			var i int;
			for (i = 0; i < 1000; i = i + 1) {
				sink = sink + junk[i * 65536 * 65536];   // wild address every pass
			}
		}
	`
	prog, err := lang.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	an := pin.Analyze(prog)
	b.ResetTimer()
	repairs := 0
	for i := 0; i < b.N; i++ {
		m, err := vm.New(prog, vm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		r := core.Attach(m, an, core.Options{Mode: core.ModeEnhanced, MaxRepairs: 1 << 20})
		res := r.Run(1 << 24)
		repairs += res.Repairs
		var total float64
		for _, ev := range res.Events {
			total += ev.Duration.Seconds()
		}
		b.ReportMetric(total/float64(res.Repairs)*1e9, "ns/repair")
	}
	if repairs == 0 {
		b.Fatal("no repairs happened")
	}
}

// BenchmarkFigure7 regenerates the checkpoint-cost sweep for every
// paper-seeded app, reporting the absolute efficiency gain at each cost.
func BenchmarkFigure7(b *testing.B) {
	for _, app := range PaperApps() {
		b.Run(app.Name, func(b *testing.B) {
			var pts []checkpoint.Point
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = Figure7(app, 2017)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range pts {
				b.ReportMetric(p.LetGo, fmt.Sprintf("eff_letgo_t%.0f", p.X))
				b.ReportMetric(p.Standard, fmt.Sprintf("eff_std_t%.0f", p.X))
			}
		})
	}
}

// BenchmarkFigure8 regenerates the system-scale sweep at the paper's two
// checkpoint costs for CLAMR and PENNANT (the apps shown in Figure 8).
func BenchmarkFigure8(b *testing.B) {
	for _, name := range []string{"CLAMR", "PENNANT"} {
		app, _ := PaperAppByName(name)
		for _, tchk := range []float64{12, 1200} {
			b.Run(fmt.Sprintf("%s/tchk%.0f", name, tchk), func(b *testing.B) {
				var pts []checkpoint.Point
				for i := 0; i < b.N; i++ {
					var err error
					pts, err = Figure8(app, tchk, 2017)
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, p := range pts {
					b.ReportMetric(p.Gain(), fmt.Sprintf("gain_n%.0fk", p.X/1000))
				}
			})
		}
	}
}

// BenchmarkSection8HPL reproduces the direct-method case study: HPL's
// fault profile and the marginal efficiency improvement LetGo brings it.
func BenchmarkSection8HPL(b *testing.B) {
	b.Run("campaign", func(b *testing.B) {
		var r *CampaignResult
		for i := 0; i < b.N; i++ {
			r = campaign(b, "HPL", LetGoE, nil)
		}
		b.ReportMetric(100*r.PCrash, "crash%")
		b.ReportMetric(r.Metrics.Continuability, "continuability")
		b.ReportMetric(100*r.Counts.Frac(SDC), "sdc%")
		b.ReportMetric(100*r.Counts.Frac(CSDC), "c_sdc%")
	})
	b.Run("efficiency", func(b *testing.B) {
		hpl := checkpoint.PaperHPL()
		var std, lg checkpoint.Result
		for i := 0; i < b.N; i++ {
			p := CRParamsFor(hpl, 1200, 0.10, 21600)
			var err error
			std, lg, err = checkpoint.CompareArms(p, stats.NewRNG(3), checkpoint.DefaultHorizon, nil)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(std.Efficiency(), "eff_std")
		b.ReportMetric(lg.Efficiency(), "eff_letgo")
	})
}

// BenchmarkAblationFill evaluates design decision D1: the Heuristic-I fill
// value (the paper argues for 0 because memory is mostly zeros).
func BenchmarkAblationFill(b *testing.B) {
	for _, c := range []struct {
		name string
		fill uint64
		ffil float64
	}{
		{"zero", 0, 0},
		{"ones", ^uint64(0), -1},
		{"pattern", 0x5555555555555555, 12345.678},
	} {
		b.Run(c.name, func(b *testing.B) {
			opts := &Options{Mode: ModeEnhanced, FillInt: c.fill, FillFloat: c.ffil}
			var r *CampaignResult
			for i := 0; i < b.N; i++ {
				r = campaign(b, "LULESH", LetGoE, opts)
			}
			b.ReportMetric(r.Metrics.ContinuedCorrect, "c_correct")
			b.ReportMetric(r.Metrics.ContinuedSDC, "c_sdc")
		})
	}
}

// BenchmarkAblationHeuristics evaluates D2/D1 jointly: each heuristic
// disabled in turn under otherwise-Enhanced mode.
func BenchmarkAblationHeuristics(b *testing.B) {
	for _, c := range []struct {
		name string
		opts *Options
	}{
		{"full", &Options{Mode: ModeEnhanced}},
		{"noH1", &Options{Mode: ModeEnhanced, DisableH1: true}},
		{"noH2", &Options{Mode: ModeEnhanced, DisableH2: true}},
		{"neither", &Options{Mode: ModeBasic}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var r *CampaignResult
			for i := 0; i < b.N; i++ {
				r = campaign(b, "CLAMR", LetGoE, c.opts)
			}
			b.ReportMetric(r.Metrics.Continuability, "continuability")
			b.ReportMetric(r.Metrics.ContinuedCorrect, "c_correct")
		})
	}
}

// BenchmarkAblationRetries evaluates D4: letting LetGo elide more than one
// crash per run instead of giving up at the second.
func BenchmarkAblationRetries(b *testing.B) {
	for _, retries := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("max%d", retries), func(b *testing.B) {
			opts := &Options{Mode: ModeEnhanced, MaxRepairs: retries}
			var r *CampaignResult
			for i := 0; i < b.N; i++ {
				r = campaign(b, "LULESH", LetGoE, opts)
			}
			b.ReportMetric(r.Metrics.Continuability, "continuability")
			b.ReportMetric(r.Metrics.ContinuedSDC, "c_sdc")
		})
	}
}

// BenchmarkAblationInterval evaluates D5: Young's formula vs fixed
// checkpoint intervals in the C/R model.
func BenchmarkAblationInterval(b *testing.B) {
	app, _ := PaperAppByName("LULESH")
	base := CRParamsFor(app, 1200, 0.10, 21600)
	young := base.IntervalFor(false)
	for _, c := range []struct {
		name     string
		interval float64
		rule     checkpoint.IntervalRule
	}{
		{"young", 0, checkpoint.RuleYoung},
		{"daly", 0, checkpoint.RuleDaly},
		{"half", young / 2, checkpoint.RuleYoung},
		{"double", young * 2, checkpoint.RuleYoung},
	} {
		b.Run(c.name, func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				p := base
				p.Interval = c.interval
				p.Rule = c.rule
				r, err := checkpoint.Simulate(p, stats.NewRNG(5), checkpoint.DefaultHorizon, false, nil)
				if err != nil {
					b.Fatal(err)
				}
				eff = r.Efficiency()
			}
			b.ReportMetric(eff, "efficiency")
		})
	}
}

// BenchmarkSyncOverhead is the paper's synchronization-overhead
// sensitivity: Table 4 evaluates T_sync at both 10% and 50% of T_chk and
// reports that the Figure-7 trends hold across both.
func BenchmarkSyncOverhead(b *testing.B) {
	app, _ := PaperAppByName("LULESH")
	for _, sync := range []float64{0.10, 0.50} {
		b.Run(fmt.Sprintf("sync%.0f%%", 100*sync), func(b *testing.B) {
			var pts []checkpoint.Point
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = checkpoint.SweepCheckpointCostModelTraced(app, []float64{12, 120, 1200}, nil, sync, 21600, 2017, checkpoint.DefaultHorizon, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range pts {
				b.ReportMetric(p.Gain(), fmt.Sprintf("gain_t%.0f", p.X))
			}
		})
	}
}

// BenchmarkWeibullArrivals compares the Poisson fault process the paper
// assumes against heavy-tailed Weibull arrivals seen on production
// systems (El-Sayed & Schroeder).
func BenchmarkWeibullArrivals(b *testing.B) {
	app, _ := PaperAppByName("CLAMR")
	for _, shape := range []float64{1.0, 0.7} {
		b.Run(fmt.Sprintf("shape%.1f", shape), func(b *testing.B) {
			var std, lg checkpoint.Result
			for i := 0; i < b.N; i++ {
				p := CRParamsFor(app, 1200, 0.10, 21600)
				p.WeibullShape = shape
				var err error
				std, lg, err = checkpoint.CompareArms(p, stats.NewRNG(9), checkpoint.DefaultHorizon, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(lg.Efficiency()-std.Efficiency(), "gain")
		})
	}
}

// BenchmarkFaultModels compares the paper's single-bit model against the
// Section-8 multi-bit patterns (ECC-escaping errors).
func BenchmarkFaultModels(b *testing.B) {
	app, _ := AppByName("SNAP")
	for _, model := range []FaultModel{SingleBit, DoubleBit, ByteBurst} {
		b.Run(model.String(), func(b *testing.B) {
			var r *CampaignResult
			for i := 0; i < b.N; i++ {
				c := &Campaign{App: app, Mode: LetGoE, N: benchN, Seed: 2017, Model: model}
				var err error
				r, err = c.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*r.PCrash, "crash%")
			b.ReportMetric(r.Metrics.Continuability, "continuability")
			b.ReportMetric(100*r.Counts.Frac(CSDC), "c_sdc%")
		})
	}
}

// BenchmarkClusterHarness measures the executed (not modelled) multi-rank
// C/R job with and without LetGo — the end-to-end E13 extension.
func BenchmarkClusterHarness(b *testing.B) {
	app, _ := AppByName("SNAP")
	prog, err := app.Compile()
	if err != nil {
		b.Fatal(err)
	}
	for _, useLetGo := range []bool{false, true} {
		name := "standard"
		if useLetGo {
			name = "letgo"
		}
		b.Run(name, func(b *testing.B) {
			var eff float64
			runs := 0
			for i := 0; i < b.N; i++ {
				for seed := uint64(0); seed < 4; seed++ {
					res, err := RunCluster(ClusterConfig{
						Prog:                    prog,
						Ranks:                   2,
						UseLetGo:                useLetGo,
						CheckpointInterval:      60_000,
						CheckpointCost:          3_000,
						RecoveryCost:            3_000,
						MeanInstrsBetweenFaults: 80_000,
						Seed:                    100 + seed,
						MaxCost:                 1 << 28,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Completed {
						eff += res.Efficiency()
						runs++
					}
				}
			}
			if runs > 0 {
				b.ReportMetric(eff/float64(runs), "efficiency")
			}
		})
	}
}

// BenchmarkInjection measures the cost of one full injection run
// (breakpoint to site, flip, run to completion under LetGo-E).
func BenchmarkInjection(b *testing.B) {
	app, _ := AppByName("SNAP")
	prog, err := app.Compile()
	if err != nil {
		b.Fatal(err)
	}
	an := pin.Analyze(prog)
	prof, err := an.ProfileRun(vm.Config{}, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := inject.SamplePlan(prog, prof, rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inject.Execute(prog, an, plan, inject.LetGoE, 4*prof.Total); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorOverheadScaling replays the paper's Section-6.2 input-
// size experiment: LULESH at three sizes, bare vs monitored, showing the
// monitor overhead does not grow with input size.
func BenchmarkMonitorOverheadScaling(b *testing.B) {
	sizes := []struct {
		name     string
		n, steps int
	}{
		{"small", 8, 10},
		{"medium", 12, 30},
		{"large", 20, 60},
	}
	for _, sz := range sizes {
		prog, err := lang.Compile(apps.LULESHSource(sz.n, sz.steps))
		if err != nil {
			b.Fatal(err)
		}
		an := pin.Analyze(prog)
		b.Run(sz.name+"/bare", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := vm.New(prog, vm.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Run(1 << 32); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sz.name+"/monitored", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := vm.New(prog, vm.Config{})
				if err != nil {
					b.Fatal(err)
				}
				r := core.Attach(m, an, core.Options{Mode: core.ModeEnhanced})
				if res := r.Run(1 << 32); res.Outcome != core.RunCompleted {
					b.Fatal("monitored run did not complete")
				}
			}
		})
	}
}
