package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileAndSpread(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := spread([]float64{90, 100, 110}); !near(got, 0.2) {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if quantile(nil, 0.5) != 0 || spread(nil) != 0 || spread([]float64{0, 0}) != 0 {
		t.Error("empty or all-zero samples must give 0")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrSpread(ten); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("iqrSpread = %v, want 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want string
	}{{50, ""}, {100, "p90"}, {200, "p95"}, {999, "p95"}, {1000, "p99"}} {
		if got, _ := tailPercentile(mk(c.n)); got != c.want {
			t.Errorf("n=%d: highest percentile %q, want %q", c.n, got, c.want)
		}
	}
}

// TestSelfTimes builds one driver.execute of 10 s around an inject span of
// 9 s with two side-by-side worker chunks, and one driver.coordinate of
// 6 s around two fleet workers' spans.
func TestSelfTimes(t *testing.T) {
	prog := func(hub, name string, parent int, start, end float64) spanRec {
		return spanRec{Kind: "program", Hub: hub, Name: name, Parent: parent, Start: start, End: end}
	}
	spans := []spanRec{
		{Kind: "driver", ID: 1, Name: "driver.pass", Start: 0, End: 17},
		{Kind: "driver", ID: 2, Parent: 1, Name: "driver.execute", Start: 0, End: 10},
		{Kind: "driver", ID: 3, Parent: 1, Name: "driver.coordinate", Start: 10, End: 16},
		prog("driver", "inject", 2, 0.5, 9.5),
		prog("driver", "worker_chunk", 2, 1, 9),
		prog("driver", "worker_chunk", 2, 1, 7),
		prog("driver", "execute", 2, 1, 6),
		prog("driver", "execute", 2, 1, 5),
		prog("driver", "repair", 2, 2, 3),
		prog("driver", "classify", 2, 6, 7),
		prog("w1", "plan", 3, 10, 11),
		prog("w1", "inject", 3, 11, 15),
		prog("w2", "plan", 3, 10, 11),
		prog("w2", "inject", 3, 11, 13),
	}
	self := selfTimes(spans, map[string]int{"driver": 2, "w1": 1, "w2": 1}, map[string]bool{"w1": true, "w2": true})
	want := map[string]float64{
		"driver.pass":       1,             // 17 - (10 + 6)
		"driver.execute":    1,             // 10 - inject 9
		"driver.coordinate": 2,             // 6 - mean of (1+4, 1+2)
		"inject":            9 + 6 - 14./2, // driver hub: 9 - 14/2 lanes; workers: no chunks
		"worker_chunk":      14 - 9 - 1,
		"execute":           9 - 1,
		"repair":            1,
		"classify":          1,
		"plan":              2,
	}
	for name, w := range want {
		if got := self[name]; !near(got, w) {
			t.Errorf("self[%s] = %v, want %v", name, got, w)
		}
	}
	// Driver self time is 1 + 1 + 2 of 17 s.
	if got := coverage(self, 17); !near(got, 1-4./17) {
		t.Errorf("coverage = %v, want %v", got, 1-4./17)
	}
}

func TestJudge(t *testing.T) {
	up := metricSpec{Name: "inj_per_s", Better: higher, Bound: 0.10}
	down := metricSpec{Name: "setup_s", Better: lower, Bound: 0.10}
	for _, c := range []struct {
		name     string
		spec     metricSpec
		old, new []float64
		want     string
	}{
		{"same within bound", up, []float64{100, 101, 99}, []float64{95, 96, 94}, vSame},
		{"worse beyond bound", up, []float64{100, 101, 99}, []float64{85, 86, 84}, vWorse},
		{"better beyond bound", up, []float64{100, 101, 99}, []float64{120, 121, 119}, vBetter},
		{"lower is better", down, []float64{1.0, 1.01}, []float64{1.3, 1.31}, vWorse},
		{"noisy old side", up, []float64{80, 100, 120}, []float64{100, 101, 99}, vUnresolved},
		{"noisy new side", up, []float64{100, 101, 99}, []float64{80, 100, 120}, vUnresolved},
		{"noisy but every run wins", up, []float64{80, 100, 120}, []float64{130, 150, 170}, vBetter},
		{"noisy but every run loses", up, []float64{80, 100, 120}, []float64{50, 60, 70}, vWorse},
		{"nothing to compare", up, nil, []float64{1}, vUnresolved},
	} {
		if got := judge(c.spec, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(injRuns, setupRuns []float64, forks float64) ledger {
		return ledger{Host: hostInfo{NProc: 2, CPU: "test"}, Sets: []runSet{{Seed: 2017, Runs: 3, Workloads: []workloadLedger{{
			Name: wlTable3,
			EndToEnd: map[string]metricRuns{
				mInjPerS: {Unit: "injections/s", Values: injRuns},
				mSetupS:  {Unit: "s", Values: setupRuns},
			},
			PerLayer: map[string]value{"engine.forks": {forks, "count"}},
		}}}}}
	}
	dir := t.TempDir()
	write := func(name string, l ledger) string {
		data, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", mk([]float64{100, 101, 99}, []float64{1, 1.01, 0.99}, 700))
	same := write("same.json", mk([]float64{101, 100, 99}, []float64{0.5, 1.0, 1.5}, 700))
	slow := write("slow.json", mk([]float64{80, 81, 79}, []float64{1, 1.01, 0.99}, 650))

	var out bytes.Buffer
	worse, err := compareFiles(&out, old, same)
	if err != nil || worse {
		t.Fatalf("old vs same: worse=%v err=%v", worse, err)
	}
	for _, want := range []string{vSame, vUnresolved, "(base 100.0000)", "1 compared, 0 differ"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("old vs same output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	worse, err = compareFiles(&out, old, slow)
	if err != nil || !worse {
		t.Fatalf("old vs slow: worse=%v err=%v", worse, err)
	}
	for _, want := range []string{vWorse, "engine.forks: 700 -> 650"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("old vs slow output lacks %q:\n%s", want, out.String())
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifestMatchesSpecs holds BENCHMARK.json to the names, units,
// directions and bounds this package declares, and to the manifest's
// own limits.
func TestManifestMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricSpec                 `json:"end_to_end"`
		PerLayer   []metricSpec                 `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	eq := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, package %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: manifest %+v, package %+v", kind, i, got[i], want[i])
			}
		}
	}
	eq("end_to_end", m.EndToEnd, endToEndSpecs)
	eq("per_layer", m.PerLayer, perLayerSpecs)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("workloads: manifest %d, package %d", len(m.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, package %s: %s", i, m.Workloads[i], w.Name, w.Why)
		}
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, s := range endToEndSpecs {
		check(s.Name)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q", s.Name, s.Unit)
		}
		if s.Better != higher && s.Better != lower {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
	}
	for _, s := range perLayerSpecs {
		check(s.Name)
	}
}

// TestSmokeAllWorkloads runs every workload's real driver at N=20 on one
// app and
// holds the reported names to the declared set, the outputs to the
// pin-independent checks, and shard-merge and fleet-compare to the same
// tables.
func TestSmokeAllWorkloads(t *testing.T) {
	if runtime.NumCPU() < injectWorkers {
		t.Skipf("needs %d CPUs", injectWorkers)
	}
	dir := t.TempDir()
	cfg := runConfig{
		size:    sizing{table3N: 20, prefixN: 20, compareN: 20, maxApps: 1, poll: 2 * time.Millisecond},
		tmpRoot: dir, traceDir: dir, probeRound: time.Millisecond,
	}
	probed, err := runProbes(cfg.probeRound, dir)
	if err != nil {
		t.Fatal(err)
	}
	names := func(specs []metricSpec) map[string]string {
		out := map[string]string{}
		for _, s := range specs {
			out[s.Name] = s.Unit
		}
		return out
	}
	sameNames := func(what string, rep *runReport, want map[string]string) {
		t.Helper()
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", what, rep.Correct, rep.Failed, rep.Attempted)
		}
		for name, v := range rep.Metrics {
			if unit, ok := want[name]; !ok || unit != v.Unit {
				t.Errorf("%s reports %s in %q, declared %q (declared: %v)", what, name, v.Unit, unit, ok)
			}
		}
		for name := range want {
			if _, ok := rep.Metrics[name]; !ok {
				t.Errorf("%s does not report %s", what, name)
			}
		}
	}
	tables := map[string]map[string]string{}
	for _, w := range workloads {
		rep, m, err := tracedPasses(w, 2017, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.setPerLayer(m, probed); err != nil {
			t.Fatal(err)
		}
		for name := range m {
			if _, isProbe := probed[name]; isProbe {
				t.Errorf("%s is measured both by a probe and by the workload", name)
			}
		}
		sameNames(w.Name+" traced", rep, names(perLayerSpecs))
		if c := rep.Metrics["span.coverage_frac"].Value; c <= 0 || c > 1 {
			t.Errorf("%s: span.coverage_frac = %v", w.Name, c)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".jsonl")); err != nil {
			t.Error(err)
		}
		tables[w.Name] = rep.digests
	}
	if msg := sameTables(tables[wlShard], tables[wlFleet]); msg != "" {
		t.Error(msg)
	}
	rep, err := endToEnd(workloads[0], 2017, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(workloads[0].Name+" end to end", rep, names(endToEndSpecs))
	for name, v := range rep.Metrics {
		if v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", name, v.Value)
		}
	}
}
