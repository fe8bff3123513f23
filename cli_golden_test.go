package letgo

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goldenCase is one pinned invocation: results/cli/<name>.golden holds
// the command line, its stdout and its exit code. "$DIR" in an argument
// is the test's temp directory (journals); the golden shows it unexpanded.
type goldenCase struct {
	name string
	tool string
	args string
}

const (
	goldenCampaign = "-apps CLAMR,HPL -n 40 -seed 11 -workers 2"
	goldenSim      = "-app CLAMR -seed 11 -horizon 5e6"
)

// goldenCases run in order: the shard cases write the journals the merge
// cases read.
var goldenCases = []goldenCase{
	{"inject-table-off", "letgo-inject", goldenCampaign + " -mode off"},
	{"inject-table-B", "letgo-inject", goldenCampaign + " -mode B"},
	{"inject-table-E", "letgo-inject", goldenCampaign + " -mode E"},
	{"inject-compare", "letgo-inject", goldenCampaign + " -compare"},
	{"inject-format-csv", "letgo-inject", goldenCampaign + " -format csv"},
	{"inject-format-markdown", "letgo-inject", goldenCampaign + " -format markdown"},
	{"inject-format-json", "letgo-inject", goldenCampaign + " -format json"},
	{"inject-engine-rerun", "letgo-inject", goldenCampaign + " -engine rerun"},
	{"inject-shard-1of2", "letgo-inject", goldenCampaign + " -shard 1/2 -journal $DIR/s1.jsonl"},
	{"inject-shard-2of2", "letgo-inject", goldenCampaign + " -shard 2/2 -journal $DIR/s2.jsonl"},
	{"inject-merge-text", "letgo-inject", goldenCampaign + " -merge $DIR/s*.jsonl"},
	{"inject-merge-json", "letgo-inject", goldenCampaign + " -merge $DIR/s*.jsonl -format json"},
	{"inject-compare-format-csv", "letgo-inject", goldenCampaign + " -compare -format csv"},
	{"inject-compare-format-markdown", "letgo-inject", goldenCampaign + " -compare -format markdown"},
	{"inject-compare-format-json", "letgo-inject", goldenCampaign + " -compare -format json"},
	{"sim-fig7-text", "letgo-sim", goldenSim + " -fig 7"},
	{"sim-fig7-csv", "letgo-sim", goldenSim + " -fig 7 -format csv"},
	{"sim-fig8-text", "letgo-sim", goldenSim + " -fig 8"},
	{"sim-fig8-csv", "letgo-sim", goldenSim + " -fig 8 -format csv"},
	{"sim-fig0", "letgo-sim", goldenSim + " -fig 0"},
	{"sim-advise", "letgo-sim", goldenSim + " -advise"},
	{"run-app-E", "letgo-run", "-app CLAMR -mode E"},
	{"run-app-off", "letgo-run", "-app CLAMR -mode off"},
	{"run-mc-E", "letgo-run", "-mode E results/cli/segv.mc"},
	{"run-mc-off", "letgo-run", "-mode off results/cli/segv.mc"},
	{"vet-apps-all", "letgo-vet", "-apps all"},
	{"vet-passes", "letgo-vet", "-passes"},
	// -h prints to stderr; pinned so a flag name or default cannot move
	// unnoticed.
	{"help-inject", "letgo-inject", "-h"},
	{"help-sim", "letgo-sim", "-h"},
	{"help-run", "letgo-run", "-h"},
}

// TestCLIGolden rebuilds the commands and diffs stdout and exit code of
// every goldenCase against results/cli/. Regenerate after a reviewed
// change in what a command prints: go test -run TestCLIGolden -update .
func TestCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the toolchain")
	}
	dir := t.TempDir()
	for _, tool := range []string{"letgo-inject", "letgo-sim", "letgo-run", "letgo-vet"} {
		buildTool(t, dir, tool)
	}
	got := map[string]string{}
	for _, gc := range goldenCases {
		args := strings.Fields(strings.ReplaceAll(gc.args, "$DIR", dir))
		cmd := exec.Command(filepath.Join(dir, gc.tool), args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := exitCode(cmd.Run())
		if gc.args == "-h" {
			// The usage header names the binary by its temp path.
			_, flags, _ := strings.Cut(stderr.String(), "\n")
			stdout.WriteString(flags)
		}
		got[gc.name] = fmt.Sprintf("$ %s %s\n%s[exit %d]\n", gc.tool, gc.args, stdout.String(), code)

		path := filepath.Join("results", "cli", gc.name+".golden")
		if *updateSnapshots {
			if err := os.WriteFile(path, []byte(got[gc.name]), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate: go test -run TestCLIGolden -update .)", err)
		}
		if got[gc.name] != string(want) {
			t.Errorf("%s differs from %s:\n--- got\n%s--- want\n%s\nstderr: %s", gc.name, path, got[gc.name], want, stderr.String())
		}
	}

	// Equalities the goldens imply, stated: the rerun engine and a merge
	// of both shards print the single-process fork table.
	body := func(name string) string {
		_, b, _ := strings.Cut(got[name], "\n")
		return b
	}
	for _, name := range []string{"inject-engine-rerun", "inject-merge-text"} {
		if body(name) != body("inject-table-E") {
			t.Errorf("%s is not byte-identical to inject-table-E", name)
		}
	}
	// -compare honours -format: the B and E rows of each app, as rows.
	var rows []struct{ App, Mode string }
	doc, _, _ := strings.Cut(body("inject-compare-format-json"), "[exit ")
	if err := json.Unmarshal([]byte(doc), &rows); err != nil {
		t.Fatalf("-compare -format json is not JSON: %v\n%s", err, doc)
	}
	var modes []string
	for _, r := range rows {
		modes = append(modes, r.App+"/"+r.Mode)
	}
	if want := "CLAMR/LetGo-B CLAMR/LetGo-E HPL/LetGo-B HPL/LetGo-E"; strings.Join(modes, " ") != want {
		t.Errorf("-compare -format json rows = %v, want %s", modes, want)
	}

	for _, tc := range telemetryCases {
		checkTelemetry(t, dir, tc)
	}
}

// telemetryCase is one pinned telemetry run: every step runs with
// -events-json and -metrics-out, and results/cli/<name>.events.golden and
// <name>.metrics.golden hold what they wrote, step after step, minus what
// depends on the clock or the scheduler (see telemetryEvents and
// telemetryMetrics). One injection worker keeps the event order fixed.
type telemetryCase struct {
	name  string
	tool  string
	steps []string
}

var telemetryCases = []telemetryCase{
	{"telemetry-compare", "letgo-inject", []string{"-apps CLAMR,HPL -n 40 -workers 1 -compare"}},
	{"telemetry-shard-merge", "letgo-inject", []string{
		"-apps CLAMR,HPL -n 40 -workers 1 -shard 1/2 -journal $DIR/t1.jsonl",
		"-apps CLAMR,HPL -n 40 -workers 1 -merge $DIR/t1.jsonl",
	}},
	{"telemetry-sim", "letgo-sim", []string{"-app LULESH -horizon 200000"}},
}

// checkTelemetry runs tc's steps and diffs their filtered streams and
// dumps against the pinned files (or rewrites them under -update).
func checkTelemetry(t *testing.T, dir string, tc telemetryCase) {
	t.Helper()
	var events, metrics strings.Builder
	for i, step := range tc.steps {
		ev := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", tc.name, i))
		prom := filepath.Join(dir, fmt.Sprintf("%s-%d.prom", tc.name, i))
		args := strings.Fields(strings.ReplaceAll(step, "$DIR", dir))
		args = append(args, "-events-json", ev, "-metrics-out", prom)
		cmd := exec.Command(filepath.Join(dir, tc.tool), args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		header := fmt.Sprintf("$ %s %s [exit %d]\n", tc.tool, step, exitCode(cmd.Run()))
		events.WriteString(header)
		metrics.WriteString(header)
		if err := telemetryEvents(&events, ev); err != nil {
			t.Fatalf("%s: %v\nstderr: %s", tc.name, err, stderr.String())
		}
		if err := telemetryMetrics(&metrics, prom); err != nil {
			t.Fatalf("%s: %v\nstderr: %s", tc.name, err, stderr.String())
		}
	}
	for suffix, got := range map[string]string{".events.golden": events.String(), ".metrics.golden": metrics.String()} {
		path := filepath.Join("results", "cli", tc.name+suffix)
		if *updateSnapshots {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate: go test -run TestCLIGolden -update .)", err)
		}
		if got != string(want) {
			t.Errorf("%s differs from %s:\n%s", tc.name, path, firstDiff(got, string(want)))
		}
	}
}

// telemetryEvents appends the JSONL stream at path to w without its span
// events (their durations are wall-clock) and without seq, one
// {"type","event"} object a line.
func telemetryEvents(w *strings.Builder, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var env struct {
			Type  string          `json:"type"`
			Event json.RawMessage `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if env.Type != "span" {
			fmt.Fprintf(w, "{\"type\":%q,\"event\":%s}\n", env.Type, env.Event)
		}
	}
	return sc.Err()
}

// telemetryMetrics appends the Prometheus dump at path to w without its
// comment lines and without any *duration_seconds* family.
func telemetryMetrics(w *strings.Builder, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.Contains(line, "duration_seconds") {
			fmt.Fprintln(w, line)
		}
	}
	return nil
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n--- got\n%s\n--- want\n%s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
