// letgo-sim runs the Section-7 checkpoint/restart simulation and prints
// the Figure-7 and Figure-8 series (efficiency with and without LetGo).
//
// By default the model is seeded with the probabilities derived from the
// paper's own Table 3 (-seed-source paper); -seed-source measured runs a
// fresh fault-injection campaign first and uses its probabilities.
//
// Usage:
//
//	letgo-sim -fig 7 -app LULESH
//	letgo-sim -fig 8 -app CLAMR -tchk 1200
//	letgo-sim -app SNAP -tchk 120 -sync 0.5 -mtbfaults 21600
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	letgo "github.com/letgo-hpc/letgo"
	"github.com/letgo-hpc/letgo/internal/analysis"
	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/checkpoint"
	"github.com/letgo-hpc/letgo/internal/cli"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/report"
	"github.com/letgo-hpc/letgo/internal/stats"
)

func main() {
	t := cli.New("letgo-sim")
	fig := flag.Int("fig", 0, "regenerate a paper figure: 7 or 8 (0 = single configuration)")
	appName := flag.String("app", "LULESH", "benchmark app")
	tchk := flag.Float64("tchk", 120, "checkpoint cost, seconds (Figure 8 / single run)")
	sync := flag.Float64("sync", 0.10, "synchronization overhead as a fraction of tchk")
	mtbFaults := flag.Float64("mtbfaults", 21600, "mean time between faults, seconds")
	seedSource := flag.String("seed-source", "paper", "probability source: paper (Table 3) or measured (run a campaign)")
	ckptModel := flag.String("ckpt-model", "paper", "checkpoint cost model: paper (T_chk as given) or derived (scale T_chk by the app's analysis-derived minimal checkpoint set)")
	n := flag.Int("n", 1000, "injections for -seed-source measured")
	seed := flag.Uint64("seed", 2017, "simulation seed")
	horizon := flag.Float64("horizon", checkpoint.DefaultHorizon, "simulated seconds")
	advise := flag.Bool("advise", false, "print the operator recommendation (use LetGo or not) for this configuration")
	formatFlag := flag.String("format", "text", "figure output format: text, markdown, csv or json")
	t.TelemetryFlags(true)
	t.CampaignFlags() // for -seed-source measured
	flag.Parse()

	format, err := report.ParseFormat(*formatFlag)
	if err != nil {
		t.Fatal(err)
	}
	t.Open()

	probs, err := resolveProbabilities(t.Context(0), t, *seedSource, *appName, *n, *seed)
	if cli.Interrupted(err) {
		t.Finish(true, "")
	}
	if err != nil {
		t.Fatal(err)
	}
	// Resolve the checkpoint cost model: "paper" charges T_chk as given;
	// "derived" runs the memory-dependency analysis on the app and scales
	// T_chk to the minimal checkpoint set it derives.
	costOf := func(x float64) float64 { return x }
	var state *analysis.StateSet
	t.Status.Begin(probs.Name, "", 0)
	switch *ckptModel {
	case "paper":
	case "derived":
		a, ok := apps.ByName(*appName)
		if !ok {
			t.Fatal(fmt.Errorf("-ckpt-model derived: unknown app %q", *appName))
		}
		sp := t.Hub.StartSpan("analysis", "app", a.Name)
		state, err = analysis.CheckpointSet(a)
		sp.End()
		if err != nil {
			t.Fatal(fmt.Errorf("-ckpt-model derived: %w", err))
		}
		costOf = func(x float64) float64 {
			return checkpoint.DerivedCheckpointCost(x, state.DerivedBytes, state.FullBytes)
		}
		t.Status.SetCkptModel("derived")
		t.Status.SetAnalysis(state.RegionCount(), state.Live.Count(), state.DerivedBytes, state.FullBytes)
	default:
		t.Fatal(fmt.Errorf("unknown -ckpt-model %q (want paper or derived)", *ckptModel))
	}
	t.Hub.Emit(obs.PhaseEvent{App: probs.Name, Phase: "simulate"})
	t.Status.SetPhase("simulate")
	t.Status.Execute(0)
	if format == report.Text {
		fmt.Printf("# %s: P_crash=%.3f P_v=%.3f P_v'=%.3f P_letgo=%.3f (%s)\n",
			probs.Name, probs.PCrash, probs.PV, probs.PVPrime, probs.PLetGo, *seedSource)
		if state != nil {
			fmt.Printf("# derived checkpoint: %d of %d bytes (%.4f%%), %d of %d regions live, T_chk scale %.4f\n",
				state.DerivedBytes, state.FullBytes,
				100*float64(state.DerivedBytes)/float64(state.FullBytes),
				state.Live.Count(), state.RegionCount(),
				costOf(1))
		}
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	switch {
	case *advise:
		params := checkpoint.ParamsFor(probs, costOf(*tchk), *sync, *mtbFaults)
		a, err := checkpoint.Advise(params, checkpoint.AdviseConfig{ContinuedSDC: probs.ContinuedSDC, Seed: *seed, Horizon: *horizon})
		if err != nil {
			t.Fatal(err)
		}
		verdict := "do NOT enable LetGo"
		if a.UseLetGo {
			verdict = "enable LetGo"
		}
		fmt.Fprintf(w, "recommendation\t%s\n", verdict)
		fmt.Fprintf(w, "reason\t%s\n", a.Reason)
		fmt.Fprintf(w, "efficiency\tstandard %.4f, letgo %.4f (gain %+.4f)\n", a.EffStandard, a.EffLetGo, a.Gain)
	case *fig == 7 || *fig == 8:
		// One sweep, two x axes: checkpoint cost (Figure 7) or scale (8).
		xLabel, header := "tchk", "T_chk"
		var pts []checkpoint.Point
		if *fig == 7 {
			pts, err = checkpoint.SweepCheckpointCostModelTraced(probs, []float64{12, 120, 1200}, costOf, *sync, *mtbFaults, *seed, *horizon, t.Hub)
		} else {
			xLabel, header = "nodes", "Nodes"
			pts, err = checkpoint.SweepScaleTraced(probs, costOf(*tchk), *sync, []int{100_000, 200_000, 400_000}, *seed, *horizon, t.Hub)
		}
		if err != nil {
			t.Fatal(err)
		}
		rows := report.SimRows(probs.Name, xLabel, pts)
		if format == report.Text {
			sweepTable(w, header, rows)
		} else {
			if state != nil {
				// Derived-model provenance (JSON only; absent for the paper
				// model, keeping existing consumers byte-stable).
				report.AnnotateCkptModel(rows, *ckptModel, state.DerivedBytes, state.FullBytes)
			}
			if err := report.Sims(os.Stdout, format, rows); err != nil {
				t.Fatal(err)
			}
		}
	case *fig == 0:
		params := checkpoint.ParamsFor(probs, costOf(*tchk), *sync, *mtbFaults)
		std, lg, err := checkpoint.CompareArms(params, stats.NewRNG(*seed), *horizon, t.Hub)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "Arm\tEfficiency\tCheckpoints\tRollbacks\tCrashes\tElided\n")
		fmt.Fprintf(w, "standard\t%.4f\t%d\t%d\t%d\t-\n",
			std.Efficiency(), std.Checkpoints, std.Rollbacks, std.Crashes)
		fmt.Fprintf(w, "letgo\t%.4f\t%d\t%d\t%d\t%d\n",
			lg.Efficiency(), lg.Checkpoints, lg.Rollbacks, lg.Crashes, lg.Elided)
	default:
		t.Fatal(fmt.Errorf("unknown figure %d (want 7 or 8)", *fig))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	t.Status.Done(false)
	t.Finish(false, "")
}

// sweepTable prints a figure's series in the text layout.
func sweepTable(w io.Writer, header string, rows []report.SimRow) {
	fmt.Fprintf(w, "%s\tEff(standard)\tEff(LetGo)\tGain\n", header)
	for _, r := range rows {
		fmt.Fprintf(w, "%.0f\t%.4f\t%.4f\t%+.4f\n", r.X, r.Standard, r.LetGo, r.Gain)
	}
}

// resolveProbabilities returns the model's seed probabilities: the
// paper's Table 3, or a fresh campaign's. A measured campaign cut short
// by SIGINT/SIGTERM reports the interruption instead: its partial
// probabilities would not be reproducible, so the simulation is not
// seeded from them (rerun with -resume to finish it).
func resolveProbabilities(ctx context.Context, t *cli.Tool, source, appName string, n int, seed uint64) (checkpoint.AppProbabilities, error) {
	switch source {
	case "paper":
		p, ok := checkpoint.PaperAppByName(appName)
		if !ok {
			return checkpoint.AppProbabilities{}, fmt.Errorf("no paper probabilities for %q", appName)
		}
		return p, nil
	case "measured":
		a, ok := apps.ByName(appName)
		if !ok {
			return checkpoint.AppProbabilities{}, fmt.Errorf("unknown app %q", appName)
		}
		c := &inject.Campaign{App: a, Mode: inject.LetGoE, N: n, Seed: seed}
		t.Observe(c)
		r, err := c.RunContext(ctx)
		if err != nil {
			return checkpoint.AppProbabilities{}, err
		}
		if r.Interrupted {
			return checkpoint.AppProbabilities{}, context.Canceled
		}
		return letgo.ProbabilitiesFromCampaign(r)
	}
	return checkpoint.AppProbabilities{}, fmt.Errorf("unknown seed source %q", source)
}
