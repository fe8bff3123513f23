// letgo-inject runs fault-injection campaigns against the benchmark apps
// and prints Table-3-style outcome distributions and Figure-5-style metric
// comparisons.
//
// Usage:
//
//	letgo-inject -apps iterative -n 2000 -mode E        # Table 3
//	letgo-inject -apps LULESH,SNAP -n 2000 -compare     # Figure 5 (B vs E)
//	letgo-inject -apps hpl -n 2000 -mode E              # Section 8
//	letgo-inject -apps all -format json                 # machine-readable
//	letgo-inject -journal c.jsonl -n 2000 ...           # killable
//	letgo-inject -journal c.jsonl -resume -n 2000 ...   # ...and resumable
//
// One campaign can be split across independent processes (docs/FABRIC.md;
// the flags choose a fabric.Distribution): each process plans the same
// campaign, executes only its i/n shard into its own journal, and a final
// merge renders the table byte-identically to a single-process run:
//
//	letgo-inject -shard 1/3 -journal s1.jsonl -n 2000 ...  # per shard
//	letgo-inject -merge 's*.jsonl' -n 2000 ...             # final table
//
// Or coordinated dynamically over HTTP (no shared filesystem): the
// coordinator leases work units to remote workers, re-dispatches units
// whose leases expire (crashed or stalled workers), and renders the
// final table from the records they ship back:
//
//	letgo-inject -coordinate :0 -journal c.jsonl -n 2000 ...   # coordinator
//	letgo-inject -worker http://host:port                      # each worker
//
// Exit codes: 0 success, 1 error, 2 bad flags, 3 interrupted (partial
// results were printed and the journal, if any, supports -resume; a
// merge over incomplete shard journals also exits 3).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"github.com/letgo-hpc/letgo/internal/cli"
	"github.com/letgo-hpc/letgo/internal/fabric"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/outcome"
	"github.com/letgo-hpc/letgo/internal/report"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

// invocation is one letgo-inject run: the harness, what the flags chose
// for every campaign, and the completion tally behind the interrupted
// banner.
type invocation struct {
	*cli.Tool
	ctx    context.Context
	engine inject.Engine   // both engines produce identical tables; fork is faster
	sess   *fabric.Session // the distribution every campaign runs through

	completed, total int
	interrupted      bool
}

func main() {
	inv := &invocation{Tool: cli.New("letgo-inject")}
	appSel := flag.String("apps", "iterative", "comma-separated app names, 'iterative', 'all', 'hpl' or 'extensions'")
	n := flag.Int("n", 1000, "injections per app per mode")
	modeFlag := flag.String("mode", "E", "LetGo mode for the campaign: off, B, E")
	compare := flag.Bool("compare", false, "run both LetGo-B and LetGo-E and print the four metrics (Figure 5)")
	seed := flag.Uint64("seed", 2017, "campaign seed")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	engineFlag := flag.String("engine", "fork", "execution engine: fork (COW fork-replay) or rerun (re-execute from PC 0); results are identical")
	formatFlag := flag.String("format", "text", "output format: text, markdown, csv or json")
	shardFlag := flag.String("shard", "", "execute only work unit i/n of each campaign (1-based; requires -journal) for a later -merge")
	mergeFlag := flag.String("merge", "", "merge the shard journals matching this glob and render the final tables without executing injections")
	deadline := flag.Duration("deadline", 0, "whole-invocation wall-clock bound; on expiry campaigns drain and partial results print (0 = off)")
	coordinateFlag := flag.String("coordinate", "", "serve the fabric work queue on this address and coordinate remote -worker processes (requires -journal)")
	workerFlag := flag.String("worker", "", "run as a fabric worker against this coordinator URL; campaigns come from the coordinator")
	workerName := flag.String("worker-name", "", "fabric worker identity stamped on shipped records (default host-pid)")
	leaseTTL := flag.Duration("lease-ttl", 0, "fabric lease TTL before an unrenewed work unit is re-dispatched (0 = 10s)")
	unitSize := flag.Int("unit-size", 0, "fabric work-unit size in injections (0 = derived from n)")
	inv.TelemetryFlags(true)
	inv.CampaignFlags()
	flag.Parse()

	format, err := report.ParseFormat(*formatFlag)
	if err != nil {
		inv.Fatal(err)
	}
	if inv.engine, err = inject.ParseEngine(*engineFlag); err != nil {
		inv.Fatal(err)
	}
	sel, err := cli.SelectApps(*appSel)
	if err != nil {
		inv.Fatal(err)
	}
	modes := []inject.Mode{inject.LetGoB, inject.LetGoE}
	if !*compare {
		mode, err := parseMode(*modeFlag)
		if err != nil {
			inv.Fatal(err)
		}
		modes = []inject.Mode{mode}
	}
	d := fabric.Distribution{Coordinate: *coordinateFlag,
		Options: fabric.Options{LeaseTTL: *leaseTTL, UnitSize: *unitSize}}
	if *shardFlag != "" {
		if d.Shard, err = inject.ParseShardSpec(*shardFlag); err != nil {
			inv.Fatal(err)
		}
	}
	if *mergeFlag != "" {
		paths, err := filepath.Glob(*mergeFlag)
		if err != nil {
			inv.Fatal(fmt.Errorf("resilience: bad merge glob %q: %w", *mergeFlag, err))
		}
		d.Merge = append([]string{}, paths...) // non-nil even when nothing matched
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case *coordinateFlag != "" && *workerFlag != "":
		inv.Fatal(fmt.Errorf("-coordinate and -worker are mutually exclusive (one process is one side of the fabric)"))
	case *workerFlag != "" && (*shardFlag != "" || *mergeFlag != ""):
		inv.Fatal(fmt.Errorf("-coordinate/-worker replace static -shard/-merge partitioning; the flags are mutually exclusive"))
	case *workerFlag != "" && inv.Journaled():
		inv.Fatal(fmt.Errorf("-worker ships records to the coordinator; it takes no -journal or -resume"))
	case set["worker-name"] && *workerFlag == "":
		inv.Fatal(fmt.Errorf("-worker-name requires -worker"))
	case set["lease-ttl"] && *coordinateFlag == "":
		inv.Fatal(fmt.Errorf("-lease-ttl requires -coordinate"))
	case set["unit-size"] && *coordinateFlag == "":
		inv.Fatal(fmt.Errorf("-unit-size requires -coordinate"))
	}
	if err := d.Check(inv.Journaled()); err != nil {
		inv.Fatal(err)
	}
	inv.Open()
	inv.ctx = inv.Context(*deadline)
	if *mergeFlag != "" && len(d.Merge) == 0 {
		// Merging nothing is always a misconfiguration; an empty table would hide it.
		inv.Fatal(fmt.Errorf("resilience: merge glob %q matches no journals", *mergeFlag))
	}
	if *workerFlag != "" {
		inv.runWorker(*workerFlag, *workerName, *workers)
	}

	d.Options.Hub = inv.Hub
	if inv.sess, err = d.Open(inv.Journal, func(col resilience.Collision) {
		fmt.Fprintf(os.Stderr, "letgo-inject: shard collision: %s\n", col)
	}); err != nil {
		inv.Fatal(err)
	}
	if addr := inv.sess.Addr(); addr != "" {
		fmt.Fprintf(os.Stderr, "letgo-inject: fabric coordinator on http://%s\n", addr)
		// One scrape target covers campaign and fabric state.
		inv.Plane.Handle("/fabric/status", inv.sess.StatusHandler())
	}

	// The one campaign loop: apps × modes, until done or interrupted.
	var results []*inject.Result
campaigns:
	for _, a := range sel {
		for _, mode := range modes {
			r := inv.run(&inject.Campaign{App: a, Mode: mode, N: *n, Seed: *seed, Workers: *workers})
			if r == nil {
				break campaigns
			}
			results = append(results, r)
		}
	}
	if err := inv.render(format, *compare, len(sel) > 1, results); err != nil {
		inv.fatal(err)
	}
	inv.sess.Close()
	inv.Finish(inv.interrupted || inv.ctx.Err() != nil,
		fmt.Sprintf(": %d/%d injections completed", inv.completed, inv.total))
}

func parseMode(mode string) (inject.Mode, error) {
	switch strings.ToUpper(mode) {
	case "OFF":
		return inject.NoLetGo, nil
	case "B":
		return inject.LetGoB, nil
	case "E":
		return inject.LetGoE, nil
	}
	return 0, fmt.Errorf("unknown mode %q", mode)
}

// run wires one campaign to the invocation, runs it through the session
// and tallies its completion. It returns nil when the signal (or
// -deadline) landed before the campaign's injection phase: nothing to
// render, and the whole campaign counts as outstanding.
func (inv *invocation) run(c *inject.Campaign) *inject.Result {
	if inv.ctx.Err() != nil {
		return nil
	}
	c.Engine = inv.engine
	inv.Observe(c)
	r, err := inv.sess.Run(inv.ctx, c)
	if cli.Interrupted(err) {
		inv.total += c.N
		inv.interrupted = true
		return nil
	}
	if err != nil {
		inv.fatal(err)
	}
	inv.completed += r.Completed
	inv.total += r.Planned
	inv.interrupted = inv.interrupted || r.Interrupted
	return r
}

// render prints what ran, once: the machine-readable rows, the Figure-5
// layout (the four Section-5.3 metrics, LetGo-B and LetGo-E side by side)
// or the Table-3 layout (outcome fractions over all injections).
func (inv *invocation) render(format report.Format, compare, average bool, results []*inject.Result) error {
	if format != report.Text {
		rows := make([]report.CampaignRow, len(results))
		for i, r := range results {
			rows[i] = report.Row(r)
			rows[i].MergedJournals, rows[i].MergedWriters = inv.sess.Merged()
		}
		return report.Campaigns(os.Stdout, format, rows)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if compare {
		fmt.Fprintf(w, "Benchmark\tMode\tContinuability\tContinued_detected\tContinued_correct\tContinued_SDC\n")
		for _, r := range results {
			m := r.Metrics
			fmt.Fprintf(w, "%s\t%v\t%.3f\t%.3f\t%.3f\t%.3f\n",
				r.App, r.Mode, m.Continuability, m.ContinuedDetected, m.ContinuedCorrect, m.ContinuedSDC)
		}
		return w.Flush()
	}
	fmt.Fprintf(w, "Benchmark\tDetected\tBenign\tSDC\tDoubleCrash\tC-Detected\tC-Benign\tC-SDC\tHang\tCrashRate\tContinuability\tMedianCrashLatency\tDeadDest\tMaskedDead\tMaskedLive\n")
	var agg, aggLive, aggDead outcome.Counts
	for _, r := range results {
		agg.Merge(r.Counts)
		aggLive.Merge(r.LiveDest)
		aggDead.Merge(r.DeadDest)
		row(w, r.App, &r.Counts, r.Metrics, fmt.Sprintf("%d", r.MedianCrashLatency()), &r.LiveDest, &r.DeadDest)
	}
	if average {
		row(w, "AVERAGE", &agg, outcome.ComputeMetrics(&agg), "-", &aggLive, &aggDead)
	}
	return w.Flush()
}

func row(w *tabwriter.Writer, name string, c *outcome.Counts, m outcome.Metrics, latency string, live, dead *outcome.Counts) {
	pct := func(cl outcome.Class) string { return fmt.Sprintf("%.2f%%", 100*c.Frac(cl)) }
	crash := 0.0
	deadFrac := 0.0
	if c.N > 0 {
		crash = float64(c.CrashTotal()) / float64(c.N)
		deadFrac = float64(dead.N) / float64(c.N)
	}
	fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%.2f%%\t%.2f%%\t%s\t%.2f%%\t%.2f%%\t%.2f%%\n",
		name, pct(outcome.Detected), pct(outcome.Benign), pct(outcome.SDC),
		pct(outcome.DoubleCrash), pct(outcome.CDetected), pct(outcome.CBenign),
		pct(outcome.CSDC), pct(outcome.Hang), 100*crash, 100*m.Continuability, latency,
		100*deadFrac, 100*inject.MaskedFrac(dead), 100*inject.MaskedFrac(live))
}

// runWorker is the whole -worker mode: serve the coordinator's queue
// until it says done, then exit with the usual code contract. Campaign
// configuration comes from the coordinator; only execution knobs
// (engine, workers, watchdog) are local.
func (inv *invocation) runWorker(base, name string, workers int) {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &fabric.Worker{
		Base: base, Name: name, Engine: inv.engine, Workers: workers,
		Watchdog: inv.Watchdog, Hub: inv.Hub,
	}
	fmt.Fprintf(os.Stderr, "letgo-inject: fabric worker %q serving %s\n", name, base)
	err := w.Run(inv.ctx)
	if err != nil && !cli.Interrupted(err) {
		inv.Fatal(err)
	}
	inv.Finish(err != nil, " (worker)")
}

// fatal is Fatal once campaigns are under way: the fleet is told first.
func (inv *invocation) fatal(err error) {
	inv.sess.Close()
	inv.Fatal(err)
}
