// Command bench is the repo's benchmark: four campaign workloads, one
// ledger, every layer named (see README.md beside this file).
//
//	go run ./bench                          # every workload: end to end, then traced
//	go run ./bench -seed 2017,7 -out f.json # two run-sets into one ledger file
//	go run ./bench -trace 1                 # only the traced runs
//	go run ./bench -probes                  # only the micro-probes, long rounds
//	go run ./bench -compare old.json new.json
//	go run ./bench -update-expected         # regenerate expected.json
//
// One workload run, as the acceptance driver invokes it (this is also
// what the full command re-executes itself as, one process per run):
//
//	go run ./bench --workload table3-fork --seed 2017 --seconds 10 --trace 0
//
// which prints, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Run it from the repo
// root: journals go to ./.bench_tmp and traces to ./bench/results.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A run repeats the workload's set-up at least minSetupReps times and
// until runConfig.setupTime has been spent on it (at most maxSetupReps times);
// setup_s is the median repetition. The cheapest set-up is ~60 ms, so a
// fixed count would leave it noisy.
const (
	minSetupReps = 5
	maxSetupReps = 25
)

// runConfig is where and at what size a workload run happens. The
// benchmark always runs benchConfig; the tests shrink it.
type runConfig struct {
	size       sizing
	tmpRoot    string        // journals of a run
	traceDir   string        // trace-<workload>.jsonl of a traced run
	probeRound time.Duration // probe round length inside a traced run
	setupTime  time.Duration // least time spent repeating the set-up
}

// Paths are relative to the repo root, where `go run ./bench` runs: the
// acceptance driver confines a run to its checkout, so journals do not
// go to the system temp directory.
var benchConfig = runConfig{
	size: fullSize, tmpRoot: ".bench_tmp", traceDir: "bench/results",
	probeRound: 100 * time.Millisecond, setupTime: 1500 * time.Millisecond,
}

// fullProbeRound is the round length of `-probes` alone.
const fullProbeRound = 500 * time.Millisecond

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is the last line of a workload run's standard output.
type runReport struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	digests map[string]string // campaign key -> table digest, over all passes
}

func newReport() *runReport {
	return &runReport{Correct: true, Metrics: map[string]value{}, digests: map[string]string{}}
}

func main() {
	workloadFlag := flag.String("workload", "", "run one workload once and print its JSON report (one of "+workloadNames()+")")
	seedFlag := flag.String("seed", "2017", "workload seed; the full command accepts a comma-separated list, one run-set each")
	seconds := flag.Int("seconds", 10, "minimum measuring time of one run; passes repeat until it has elapsed")
	trace := flag.Int("trace", 0, "0: untraced run reporting the end-to-end metrics; 1: traced run reporting the per-layer metrics")
	runs := flag.Int("runs", 3, "untraced runs per workload in the full command")
	probes := flag.Bool("probes", false, "run only the per-layer micro-probes, at full round length")
	compare := flag.Bool("compare", false, "compare two ledger files: -compare old.json new.json")
	update := flag.Bool("update-expected", false, "regenerate bench/expected.json for the -seed list (default 2017,7)")
	out := flag.String("out", "", "write the full command's run-sets to this ledger file")
	flag.Parse()
	traceSet, seedSet := false, false
	flag.Visit(func(f *flag.Flag) {
		traceSet = traceSet || f.Name == "trace"
		seedSet = seedSet || f.Name == "seed"
	})

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two ledger files"))
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *probes:
		err = probesOnly()
	case *update:
		if !seedSet {
			*seedFlag = "2017,7"
		}
		var seeds []uint64
		if seeds, err = parseSeeds(*seedFlag); err == nil {
			err = updateExpected(seeds)
		}
	case *workloadFlag != "":
		err = workloadRun(*workloadFlag, *seedFlag, *seconds, *trace)
	default:
		var seeds []uint64
		if seeds, err = parseSeeds(*seedFlag); err == nil {
			err = fullRun(seeds, *seconds, *runs, !traceSet || *trace == 0, !traceSet || *trace == 1, *out)
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seed %q", s)
		}
		out = append(out, n)
	}
	return out, nil
}

// hostInfo is recorded with every ledger.
type hostInfo struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
	OS    string `json:"os_arch"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// requireCPUs refuses hosts on which two injection workers cannot run
// side by side: every number would measure time slicing.
func requireCPUs() error {
	if n := runtime.NumCPU(); n < injectWorkers {
		return fmt.Errorf("need at least %d CPUs for the %d injection workers, have %d", injectWorkers, injectWorkers, n)
	}
	return nil
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// workloadRun is one process, one workload: the unit the acceptance
// driver (and the full command) runs.
func workloadRun(name, seedArg string, seconds, trace int) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
	}
	seed, err := strconv.ParseUint(seedArg, 10, 64)
	if err != nil {
		return fmt.Errorf("bad -seed %q: one workload run takes one seed", seedArg)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("bad -trace %d (want 0 or 1)", trace)
	}
	if err := requireCPUs(); err != nil {
		return err
	}
	cfg := benchConfig
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return err
	}
	h := host()
	fmt.Printf("host\tnproc=%d\tcpu=%s\tgo=%s\t%s\n", h.NProc, h.CPU, h.Go, h.OS)
	fmt.Printf("run\tworkload=%s\tseed=%d\tseconds=%d\ttrace=%d\tjournals=%s (file-system time is tmpdir-dependent)\n",
		name, seed, seconds, trace, cfg.tmpRoot)

	var rep *runReport
	if trace == 0 {
		rep, err = endToEnd(w, seed, cfg, time.Duration(seconds)*time.Second)
	} else {
		rep, err = traced(w, seed, cfg)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
	return nil
}

// endToEnd measures the end-to-end metrics with nothing attached: set-up
// repetitions first, then whole passes until `atLeast` has elapsed.
func endToEnd(w workload, seed uint64, cfg runConfig, atLeast time.Duration) (*runReport, error) {
	var setups []float64
	for spent := time.Duration(0); len(setups) < minSetupReps || (spent < cfg.setupTime && len(setups) < maxSetupReps); {
		d, err := setupRep(w, seed, cfg.size)
		if err != nil {
			return nil, err
		}
		spent += d
		setups = append(setups, d.Seconds())
	}
	rep := newReport()
	var rates []float64
	for start := time.Now(); len(rates) == 0 || time.Since(start) < atLeast; {
		r, _, err := runPass(w, seed, cfg.size, cfg.tmpRoot, nil)
		if err != nil {
			return nil, err
		}
		rep.add(verify(r))
		rates = append(rates, float64(r.classified)/r.wall.Seconds())
		fmt.Printf("pass\t%d\twall_s=%.3f\tplan_s=%.3f\tinj_per_s=%.2f\n", len(rates), r.wall.Seconds(), r.setup.Seconds(), rates[len(rates)-1])
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Printf("samples\tinj_per_s n=%d (passes)\tsetup_s n=%d (repetitions)\n", len(rates), len(setups))
	rep.Metrics[mInjPerS] = value{median(rates), "injections/s"}
	rep.Metrics[mSetupS] = value{median(setups), "s"}
	rep.Metrics[mPeakRSS] = value{rss, "MB"}
	return rep, nil
}

// add folds one pass's verdict into the report. Passes of one run share
// their inputs, so a table that differs between two of them fails the
// whole run, pinned or not.
func (rep *runReport) add(v verdict) {
	rep.Attempted += v.attempted
	rep.Failed += v.failed
	for k, d := range v.digests {
		if prev, ok := rep.digests[k]; ok && prev != d {
			fmt.Printf("FAIL\t%s rendered two different tables in one run\n", k)
			rep.Failed = rep.Attempted
		}
		rep.digests[k] = d
	}
	rep.Correct = rep.Failed == 0
}

// traced reports every per-layer metric: counts and Go runtime deltas
// from an untraced pass, spans from a traced pass of the same inputs,
// and the probes.
func traced(w workload, seed uint64, cfg runConfig) (*runReport, error) {
	rep, m, err := tracedPasses(w, seed, cfg)
	if err != nil {
		return nil, err
	}
	probed, err := runProbes(cfg.probeRound, cfg.tmpRoot)
	if err != nil {
		return nil, err
	}
	return rep, rep.setPerLayer(m, probed)
}

// setPerLayer fills the report with every declared per-layer metric.
func (rep *runReport) setPerLayer(measured ...map[string]float64) error {
	for _, s := range perLayerSpecs {
		found := false
		for _, m := range measured {
			if v, ok := m[s.Name]; ok {
				rep.Metrics[s.Name] = value{v, s.Unit}
				found = true
			}
		}
		if !found {
			return fmt.Errorf("per-layer metric %s was not measured", s.Name)
		}
	}
	return nil
}

// tracedPasses runs w traced, then untraced on the same inputs, writes
// the trace file and returns the workload's count and span metrics. The
// traced pass goes first so that its compile spans see App.Compile's
// once-per-process work.
func tracedPasses(w workload, seed uint64, cfg runConfig) (*runReport, map[string]float64, error) {
	rep := newReport()
	tr := newTracer()
	hot, svc, err := runPass(w, seed, cfg.size, cfg.tmpRoot, tr)
	if err != nil {
		return nil, nil, err
	}
	rep.add(verify(hot))
	spans := tr.spans()
	path := filepath.Join(cfg.traceDir, "trace-"+w.Name+".jsonl")
	if err := writeTrace(path, spans); err != nil {
		return nil, nil, err
	}
	fmt.Printf("trace\t%s\tspans=%d\n", path, len(spans))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, _, err := runPass(w, seed, cfg.size, cfg.tmpRoot, nil)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&after)
	rep.add(verify(plain))

	m := layerMetrics(w, plain, hot, tr, spans, svc)
	m["go.alloc_bytes_per_inj"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(max(plain.classified, 1))
	m["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return rep, m, nil
}

// layerMetrics derives the count and span metrics of one workload from
// its untraced pass (plain), its traced pass (hot) and the tracer.
func layerMetrics(w workload, plain, hot *passResult, tr *tracer, spans []spanRec, svc *serviceObserver) map[string]float64 {
	m := map[string]float64{}
	sum, count := tr.spanTotals(allHubs)
	wall := hot.wall.Seconds()

	// The fleet's executions happen on the workers' hubs, whose campaigns
	// the driver never sees; hub counters cover all four workloads alike.
	retired := tr.counter("letgo_vm_retired_instructions_total")
	forks := tr.counter("letgo_engine_forks_total")
	pages := tr.counter("letgo_engine_pages_copied_total")
	replayed := tr.counter("letgo_engine_instructions_replayed_total")
	saved := tr.counter("letgo_engine_instructions_saved_total")
	m["vm.instrs_retired"] = float64(retired)
	// Instructions the execute spans actually ran: a forked run starts
	// at its site, so the positioned prefix (saved + replayed) is not
	// inside the span.
	m["vm.minstr_per_s"] = ratio(float64(retired-replayed-saved), sum["execute"]) / 1e6
	m["mem.pages_copied"] = float64(pages)
	m["engine.forks"] = float64(forks)
	m["engine.waypoints"] = float64(hot.waypoints)
	m["engine.instrs_replayed"] = float64(replayed)
	m["engine.instrs_saved"] = float64(saved)
	m["core.repairs"] = float64(count["repair"])

	gaps := svc.all()
	m["inject.service_p50_us"] = quantile(gaps, 0.50)
	m["inject.service_p99_us"] = quantile(gaps, 0.99)
	tail, tailV := tailPercentile(gaps)
	fmt.Printf("percentiles\tinject.service_us\tn=%d\tp50=%.1f\tp99=%.1f\thighest with >=10 samples beyond it: %s=%.1f\n",
		len(gaps), quantile(gaps, 0.50), quantile(gaps, 0.99), tail, tailV)

	// Driver campaigns run injectWorkers chunks side by side; a fleet
	// worker runs one.
	lanes := map[string]int{"driver": injectWorkers}
	sideBySide := map[string]bool{}
	for _, h := range tr.hubs {
		if h.name != "driver" {
			lanes[h.name] = 1
			sideBySide[h.name] = true
		}
	}
	busyDen := 0.0
	for _, h := range tr.hubs {
		hs, _ := tr.spanTotals(func(n string) bool { return n == h.name })
		busyDen += float64(lanes[h.name]) * hs["inject"]
	}
	m["inject.worker_busy_frac"] = ratio(sum["worker_chunk"], busyDen)

	m["resilience.records"] = float64(hot.journalRecords)
	m["resilience.journal_bytes"] = float64(hot.journalBytes)

	st := hot.fabric
	m["fabric.leases_granted"] = float64(st.LeasesGranted)
	m["fabric.leases_expired"] = float64(st.LeasesExpired)
	m["fabric.heartbeats"] = float64(st.Heartbeats)
	m["fabric.records_shipped"] = float64(st.RecordsShipped)
	m["fabric.duplicate_records"] = float64(st.DuplicateRecords)
	m["fabric.coordinate_s"] = hot.coordinate.Seconds()
	wsum, _ := tr.spanTotals(func(n string) bool { return n != "driver" })
	workerSetup := wsum["compile"] + wsum["analysis"] + wsum["golden"] + wsum["profile"] + wsum["plan"]
	m["fabric.worker_setup_s"] = workerSetup
	m["fabric.idle_s"] = 0
	if n := len(sideBySide); n > 0 {
		// Mean busy time of a worker: its set-up plus its inject spans.
		m["fabric.idle_s"] = hot.coordinate.Seconds() - (workerSetup+wsum["inject"])/float64(n)
	}

	for _, name := range []string{"compile", "golden", "profile", "analysis", "plan", "inject", "worker_chunk", "execute", "classify", "merge"} {
		m["span."+name+"_s"] = sum[name]
	}
	self := selfTimes(spans, lanes, sideBySide)
	m["span.coverage_frac"] = coverage(self, wall)
	m["obs.trace_overhead_frac"] = hot.wall.Seconds()/plain.wall.Seconds() - 1

	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("self\t%s\t%.4fs\t%.1f%% of traced wall\n", n, self[n], 100*self[n]/wall)
	}
	fmt.Printf("walls\tuntraced=%.3fs\ttraced=%.3fs\t(%s)\n", plain.wall.Seconds(), hot.wall.Seconds(), w.Name)
	return m
}

func probesOnly() error {
	if err := requireCPUs(); err != nil {
		return err
	}
	if err := os.MkdirAll(benchConfig.tmpRoot, 0o755); err != nil {
		return err
	}
	got, err := runProbes(fullProbeRound, benchConfig.tmpRoot)
	if err != nil {
		return err
	}
	fmt.Printf("probes: median of %d rounds of >= %v each\n", probeRounds, fullProbeRound)
	for _, s := range perLayerSpecs {
		if v, ok := got[s.Name]; ok {
			fmt.Printf("  %-28s %14.3f %s\n", s.Name, v, s.Unit)
		}
	}
	return nil
}

// --- the full command ---------------------------------------------------

// metricRuns is one end-to-end metric over a run-set's untraced runs.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (max-min)/median
}

type workloadLedger struct {
	Name      string                `json:"name"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	EndToEnd  map[string]metricRuns `json:"end_to_end,omitempty"`
	PerLayer  map[string]value      `json:"per_layer,omitempty"`
	Digests   map[string]string     `json:"digests"`
}

type runSet struct {
	Seed       uint64           `json:"seed"`
	Runs       int              `json:"runs"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadLedger `json:"workloads"`
}

type ledger struct {
	Host hostInfo `json:"host"`
	Sets []runSet `json:"sets"`
}

// child re-executes this binary for one workload run, so that resident
// set and GC state are per run. It echoes the child's report lines and
// returns its JSON report and table digests.
func child(name string, seed uint64, seconds, trace int) (*runReport, map[string]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	outBytes, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(outBytes), "\n"), "\n")
	digests := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Split(l, "\t")
		if f[0] == "digest" && len(f) == 4 {
			digests[f[1]] = f[2]
			if f[3] == pinOK {
				continue // a pinned, matching table needs no echo
			}
		}
		fmt.Println("    " + l)
	}
	var rep runReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		if runErr != nil {
			return nil, nil, fmt.Errorf("%s run failed: %w", name, runErr)
		}
		return nil, nil, fmt.Errorf("%s run printed no report: %w", name, err)
	}
	return &rep, digests, nil
}

func fullRun(seeds []uint64, seconds, runs int, endToEndRuns, tracedRun bool, out string) error {
	if err := requireCPUs(); err != nil {
		return err
	}
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	led := ledger{Host: host()}
	fmt.Printf("host: nproc=%d cpu=%q %s %s\n", led.Host.NProc, led.Host.CPU, led.Host.Go, led.Host.OS)
	bad := false
	for _, seed := range seeds {
		set := runSet{Seed: seed, Runs: runs, RunSeconds: seconds}
		for _, w := range workloads {
			wl := workloadLedger{Name: w.Name, Digests: map[string]string{}}
			fmt.Printf("\n== %s  seed %d ==\n", w.Name, seed)
			if endToEndRuns {
				wl.EndToEnd = map[string]metricRuns{}
				for i := 0; i < runs; i++ {
					fmt.Printf("  run %d/%d\n", i+1, runs)
					rep, digests, err := child(w.Name, seed, seconds, 0)
					if err != nil {
						return err
					}
					wl.Attempted += rep.Attempted
					wl.Failed += rep.Failed
					for _, s := range endToEndSpecs {
						mr := wl.EndToEnd[s.Name]
						mr.Unit = s.Unit
						mr.Values = append(mr.Values, rep.Metrics[s.Name].Value)
						wl.EndToEnd[s.Name] = mr
					}
					mergeDigests(&wl, digests)
				}
			}
			if tracedRun {
				fmt.Printf("  traced run\n")
				rep, digests, err := child(w.Name, seed, seconds, 1)
				if err != nil {
					return err
				}
				wl.Attempted += rep.Attempted
				wl.Failed += rep.Failed
				wl.PerLayer = rep.Metrics
				mergeDigests(&wl, digests)
			}
			for name, mr := range wl.EndToEnd {
				mr.Median, mr.Spread = median(mr.Values), spread(mr.Values)
				wl.EndToEnd[name] = mr
			}
			printWorkload(wl)
			bad = bad || wl.Failed > 0
			set.Workloads = append(set.Workloads, wl)
		}
		if msg := crossCheck(set); msg != "" {
			fmt.Println("FAIL:", msg)
			bad = true
		}
		led.Sets = append(led.Sets, set)
	}
	if out != "" {
		data, err := json.MarshalIndent(led, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("\nledger written to", out)
	}
	if bad {
		return fmt.Errorf("incorrect output or failed injections (see above)")
	}
	return nil
}

// mergeDigests records a run's table digests; two runs of one workload
// and seed disagreeing is a determinism failure.
func mergeDigests(wl *workloadLedger, digests map[string]string) {
	for k, d := range digests {
		if prev, ok := wl.Digests[k]; ok && prev != d {
			fmt.Printf("FAIL: %s rendered two different tables for %s\n", wl.Name, k)
			wl.Failed++
		}
		wl.Digests[k] = d
	}
}

// crossCheck applies sameTables to a run-set that ran both workloads.
func crossCheck(set runSet) string {
	tables := map[string]map[string]string{}
	for _, wl := range set.Workloads {
		tables[wl.Name] = wl.Digests
	}
	return sameTables(tables[wlShard], tables[wlFleet])
}

func printWorkload(wl workloadLedger) {
	fmt.Printf("  -- %s --\n", wl.Name)
	for _, s := range endToEndSpecs {
		mr, ok := wl.EndToEnd[s.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-13s %-13s median %12.4f  spread %5.2f%%  n=%d  (%s is better, bound %.0f%%)\n",
			s.Name, s.Unit, mr.Median, 100*mr.Spread, len(mr.Values), s.Better, 100*s.Bound)
	}
	frac := 0.0
	if wl.Attempted > 0 {
		frac = float64(wl.Failed) / float64(wl.Attempted)
	}
	fmt.Printf("  %-13s %-13s %g  (%d of %d injections; lower is better, may not rise)\n",
		"failed_frac", "fraction", frac, wl.Failed, wl.Attempted)
	for _, s := range perLayerSpecs {
		if v, ok := wl.PerLayer[s.Name]; ok {
			fmt.Printf("    %-28s %16.4f %s\n", s.Name, v.Value, v.Unit)
		}
	}
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}
