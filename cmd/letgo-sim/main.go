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
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	letgo "github.com/letgo-hpc/letgo"
	"github.com/letgo-hpc/letgo/internal/analysis"
	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/checkpoint"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/obs/serve"
	"github.com/letgo-hpc/letgo/internal/report"
	"github.com/letgo-hpc/letgo/internal/resilience"
	"github.com/letgo-hpc/letgo/internal/stats"
)

// telem holds the optional observability sinks (-metrics-out,
// -events-json, -progress); all-off by default so the stdout figures
// are byte-identical without the flags.
var telem *obs.Sinks

// plane is the -serve observability server; nil without the flag. Closed
// explicitly in the os.Exit paths (fatal/interrupted) where defers don't
// run, so SSE streams end cleanly.
var plane *serve.Server

func main() {
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
	metricsOut := flag.String("metrics-out", "", "write a metrics dump on exit (Prometheus text; JSON when the path ends in .json)")
	eventsJSON := flag.String("events-json", "", "stream structured JSONL events to this file")
	progress := flag.Bool("progress", false, "render live simulation progress on stderr")
	serveAddr := flag.String("serve", "", "serve the live observability plane on this address (/metrics, /events, /status, /healthz, /debug/pprof)")
	journalPath := flag.String("journal", "", "journal for -seed-source measured campaigns (crash-safe JSONL; enables -resume)")
	resume := flag.Bool("resume", false, "restore completed injections from the -journal file instead of re-executing them")
	watchdog := flag.Duration("watchdog", 0, "per-injection wall-clock bound for measured campaigns (0 = off)")
	flag.Parse()

	format, err := report.ParseFormat(*formatFlag)
	if err != nil {
		fatal(err)
	}

	if telem, err = obs.Open(obs.Options{
		MetricsOut: *metricsOut, EventsJSON: *eventsJSON,
		Progress: *progress, Serve: *serveAddr != "",
	}); err != nil {
		fatal(err)
	}
	if *serveAddr != "" {
		if plane, err = serve.ForSinks(*serveAddr, telem); err != nil {
			fatal(err)
		}
		defer plane.Close()
		fmt.Fprintf(os.Stderr, "letgo-sim: observability plane on http://%s (metrics, events, status, healthz, debug/pprof)\n", plane.Addr())
	}

	if *resume && *journalPath == "" {
		fatal(fmt.Errorf("-resume requires -journal"))
	}
	var journal *resilience.Journal
	if *journalPath != "" {
		if *resume {
			journal, err = resilience.Open(*journalPath)
		} else {
			journal, err = resilience.Create(*journalPath)
		}
		if err != nil {
			fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	probs, err := resolveProbabilities(ctx, *seedSource, *appName, *n, *seed, journal, *watchdog)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, errInterrupted) {
			interrupted(journal)
		}
		fatal(err)
	}
	// Resolve the checkpoint cost model: "paper" charges T_chk as given;
	// "derived" runs the memory-dependency analysis on the app and scales
	// T_chk to the minimal checkpoint set it derives.
	costOf := func(t float64) float64 { return t }
	var state *analysis.StateSet
	switch *ckptModel {
	case "paper":
	case "derived":
		a, ok := apps.ByName(*appName)
		if !ok {
			fatal(fmt.Errorf("-ckpt-model derived: unknown app %q", *appName))
		}
		sp := telem.Hub.StartSpan("analysis", "app", a.Name)
		state, err = analysis.CheckpointSet(a)
		sp.End()
		if err != nil {
			fatal(fmt.Errorf("-ckpt-model derived: %w", err))
		}
		costOf = func(t float64) float64 {
			return checkpoint.DerivedCheckpointCost(t, state.DerivedBytes, state.FullBytes)
		}
		telem.Status.SetCkptModel("derived")
		telem.Status.SetAnalysis(state.RegionCount(), state.Live.Count(), state.DerivedBytes, state.FullBytes)
	default:
		fatal(fmt.Errorf("unknown -ckpt-model %q (want paper or derived)", *ckptModel))
	}
	var tracer checkpoint.Tracer
	if telem.Enabled() {
		tracer = checkpoint.NewObsTracer(telem.Hub, telem.Progress)
		telem.Hub.Emit(obs.PhaseEvent{App: probs.Name, Phase: "simulate"})
		telem.Progress.Start("simulate "+probs.Name, 0)
	}
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
	defer w.Flush()

	if *advise {
		params := checkpoint.ParamsFor(probs, costOf(*tchk), *sync, *mtbFaults)
		a, err := checkpoint.Advise(params, checkpoint.AdviseConfig{ContinuedSDC: probs.ContinuedSDC, Seed: *seed, Horizon: *horizon})
		if err != nil {
			fatal(err)
		}
		verdict := "do NOT enable LetGo"
		if a.UseLetGo {
			verdict = "enable LetGo"
		}
		fmt.Fprintf(w, "recommendation\t%s\n", verdict)
		fmt.Fprintf(w, "reason\t%s\n", a.Reason)
		fmt.Fprintf(w, "efficiency\tstandard %.4f, letgo %.4f (gain %+.4f)\n", a.EffStandard, a.EffLetGo, a.Gain)
		finish()
		return
	}

	switch *fig {
	case 7:
		pts, err := checkpoint.SweepCheckpointCostModelTraced(probs, []float64{12, 120, 1200}, costOf, *sync, *mtbFaults, *seed, *horizon, tracer)
		if err != nil {
			fatal(err)
		}
		if format != report.Text {
			rows := report.SimRows(probs.Name, "tchk", pts)
			annotate(rows, *ckptModel, state)
			if err := report.Sims(os.Stdout, format, rows); err != nil {
				fatal(err)
			}
			finish()
			return
		}
		fmt.Fprintf(w, "T_chk\tEff(standard)\tEff(LetGo)\tGain\n")
		for _, p := range pts {
			fmt.Fprintf(w, "%.0f\t%.4f\t%.4f\t%+.4f\n", p.X, p.Standard, p.LetGo, p.Gain())
		}
	case 8:
		pts, err := checkpoint.SweepScaleTraced(probs, costOf(*tchk), *sync, []int{100_000, 200_000, 400_000}, *seed, *horizon, tracer)
		if err != nil {
			fatal(err)
		}
		if format != report.Text {
			rows := report.SimRows(probs.Name, "nodes", pts)
			annotate(rows, *ckptModel, state)
			if err := report.Sims(os.Stdout, format, rows); err != nil {
				fatal(err)
			}
			finish()
			return
		}
		fmt.Fprintf(w, "Nodes\tEff(standard)\tEff(LetGo)\tGain\n")
		for _, p := range pts {
			fmt.Fprintf(w, "%.0f\t%.4f\t%.4f\t%+.4f\n", p.X, p.Standard, p.LetGo, p.Gain())
		}
	case 0:
		params := checkpoint.ParamsFor(probs, costOf(*tchk), *sync, *mtbFaults)
		std, lg, err := checkpoint.CompareArms(params, stats.NewRNG(*seed), *horizon, tracer)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "Arm\tEfficiency\tCheckpoints\tRollbacks\tCrashes\tElided\n")
		fmt.Fprintf(w, "standard\t%.4f\t%d\t%d\t%d\t-\n",
			std.Efficiency(), std.Checkpoints, std.Rollbacks, std.Crashes)
		fmt.Fprintf(w, "letgo\t%.4f\t%d\t%d\t%d\t%d\n",
			lg.Efficiency(), lg.Checkpoints, lg.Rollbacks, lg.Crashes, lg.Elided)
	default:
		fatal(fmt.Errorf("unknown figure %d (want 7 or 8)", *fig))
	}
	finish()
}

// annotate stamps derived-model provenance onto sweep rows (JSON only;
// a no-op for the paper model, keeping existing consumers byte-stable).
func annotate(rows []report.SimRow, model string, state *analysis.StateSet) {
	if state == nil {
		return
	}
	report.AnnotateCkptModel(rows, model, state.DerivedBytes, state.FullBytes)
}

// finish flushes the progress line and writes the metric/event sinks.
func finish() {
	telem.Progress.Finish()
	if err := telem.Close(); err != nil {
		fatal(err)
	}
}

// errInterrupted marks a measured campaign cut short by SIGINT/SIGTERM:
// its partial probabilities would not be reproducible, so the simulation
// is not seeded from them.
var errInterrupted = errors.New("measured campaign interrupted; rerun with -resume to finish it")

// interrupted prints the resume hint and exits with the interrupted code.
func interrupted(j *resilience.Journal) {
	plane.Close()
	msg := "letgo-sim: interrupted"
	if j != nil {
		msg += fmt.Sprintf(" (resume with -resume -journal %s)", j.Path())
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(3)
}

func resolveProbabilities(ctx context.Context, source, appName string, n int, seed uint64, journal *resilience.Journal, watchdog time.Duration) (checkpoint.AppProbabilities, error) {
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
		c := &inject.Campaign{
			App: a, Mode: inject.LetGoE, N: n, Seed: seed,
			Journal: journal, Watchdog: watchdog,
		}
		if telem.Enabled() {
			c.Obs = telem.Hub
			c.Observer = inject.NewObsObserver(a.Name, inject.LetGoE, n, telem.Hub, telem.Progress, telem.Status)
		}
		r, err := c.RunContext(ctx)
		if err != nil {
			return checkpoint.AppProbabilities{}, err
		}
		if r.Interrupted {
			return checkpoint.AppProbabilities{}, errInterrupted
		}
		return letgo.ProbabilitiesFromCampaign(r)
	}
	return checkpoint.AppProbabilities{}, fmt.Errorf("unknown seed source %q", source)
}

func fatal(err error) {
	plane.Close()
	fmt.Fprintln(os.Stderr, "letgo-sim:", err)
	os.Exit(1)
}
