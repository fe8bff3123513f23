package letgo

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestToolchainRoundTrip drives the CLI toolchain end to end through real
// files: MiniC source -> letgo-cc -> object -> letgo-asm -d -> listing,
// source -> letgo-cc -S -> letgo-asm -> object, and letgo-run on each
// artifact, with and without LetGo.
func TestToolchainRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the toolchain")
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.mc")
	program := `
		var table [32] float;
		var out float;
		func main() {
			var i int;
			for (i = 0; i < 32; i = i + 1) { table[i] = sqrt(float(i)); }
			out = table[3] + table[90000000];   // SIGSEGV
		}
	`
	if err := os.WriteFile(src, []byte(program), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command("go", append([]string{"run"}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("go run %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// Compile to object.
	obj := filepath.Join(dir, "prog.lgo")
	run("./cmd/letgo-cc", "-o", obj, src)
	if fi, err := os.Stat(obj); err != nil || fi.Size() == 0 {
		t.Fatalf("object missing: %v", err)
	}

	// Disassemble the object.
	dis := run("./cmd/letgo-asm", "-d", obj)
	for _, want := range []string{"main:", "push bp", "fsqrt"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}

	// Compile to assembly, then assemble that.
	asmPath := filepath.Join(dir, "prog.s")
	run("./cmd/letgo-cc", "-S", "-o", asmPath, src)
	obj2 := filepath.Join(dir, "prog2.lgo")
	run("./cmd/letgo-asm", "-o", obj2, asmPath)

	// Both objects crash without LetGo and complete under LetGo-E.
	for _, target := range []string{obj, obj2, src} {
		outOff := runAllowFail(t, "./cmd/letgo-run", "-mode", "off", target)
		if !strings.Contains(outOff, "crashed") || !strings.Contains(outOff, "SIGSEGV") {
			t.Errorf("%s without LetGo: %s", target, outOff)
		}
		outE := run("./cmd/letgo-run", "-mode", "E", "-events", target)
		if !strings.Contains(outE, "completed") || !strings.Contains(outE, "repair 1: SIGSEGV") {
			t.Errorf("%s under LetGo-E: %s", target, outE)
		}
	}

	// Crash report path.
	outTrace := runAllowFail(t, "./cmd/letgo-run", "-mode", "off", "-trace", "8", src)
	for _, want := range []string{"crash:", "registers:", "=>", "last 8 instructions"} {
		if !strings.Contains(outTrace, want) {
			t.Errorf("trace output missing %q:\n%s", want, outTrace)
		}
	}
}

// runAllowFail runs a command that may exit non-zero (crashing targets).
func runAllowFail(t *testing.T, args ...string) string {
	t.Helper()
	out, _ := exec.Command("go", append([]string{"run"}, args...)...).CombinedOutput()
	return string(out)
}

// TestInjectAndSimCLIs smoke-tests the campaign and simulation drivers in
// their machine-readable modes.
func TestInjectAndSimCLIs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the toolchain")
	}
	out, err := exec.Command("go", "run", "./cmd/letgo-inject",
		"-apps", "SNAP", "-n", "60", "-mode", "E", "-format", "json").CombinedOutput()
	if err != nil {
		t.Fatalf("letgo-inject: %v\n%s", err, out)
	}
	for _, want := range []string{`"app": "SNAP"`, `"continuability"`, `"median_crash_latency_instrs"`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("inject json missing %q:\n%s", want, out)
		}
	}

	out, err = exec.Command("go", "run", "./cmd/letgo-sim",
		"-fig", "7", "-app", "SNAP", "-horizon", "1e8").CombinedOutput()
	if err != nil {
		t.Fatalf("letgo-sim: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "T_chk") || !strings.Contains(string(out), "Gain") {
		t.Errorf("sim output:\n%s", out)
	}

	out, err = exec.Command("go", "run", "./cmd/letgo-sim",
		"-advise", "-app", "CLAMR", "-tchk", "1200", "-horizon", "1e8").CombinedOutput()
	if err != nil {
		t.Fatalf("letgo-sim -advise: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "recommendation") {
		t.Errorf("advise output:\n%s", out)
	}
}

// TestObservabilityKeepsStdoutPure runs the same campaign with every
// observability sink on and asserts stdout is byte-identical to the bare
// run: progress, metrics, events and the serve plane all live on stderr
// or side channels, never in the result tables.
func TestObservabilityKeepsStdoutPure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the toolchain")
	}
	dir := t.TempDir()
	runSplit := func(args ...string) (string, string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command("go", append([]string{"run"}, args...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("go run %v: %v\n%s", args, err, stderr.String())
		}
		return stdout.String(), stderr.String()
	}
	base := []string{"./cmd/letgo-inject", "-apps", "SNAP", "-n", "60", "-mode", "E"}
	bareOut, _ := runSplit(base...)
	obsOut, obsErr := runSplit(append(base,
		"-progress", "-serve", "127.0.0.1:0",
		"-metrics-out", filepath.Join(dir, "m.prom"),
		"-events-json", filepath.Join(dir, "e.jsonl"))...)
	if obsOut != bareOut {
		t.Errorf("observability leaked into stdout:\n--- bare ---\n%s\n--- observed ---\n%s", bareOut, obsOut)
	}
	for _, want := range []string{"observability plane on http://", "inject SNAP"} {
		if !strings.Contains(obsErr, want) {
			t.Errorf("stderr missing %q:\n%s", want, obsErr)
		}
	}
}

// TestServeModeLiveEndpoints starts a fork-engine CLAMR campaign with
// -serve and exercises the observability plane while it runs.
func TestServeModeLiveEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the toolchain")
	}
	cmd := exec.Command("go", "run", "./cmd/letgo-inject",
		"-apps", "CLAMR", "-n", "2000", "-mode", "E", "-serve", "127.0.0.1:0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // safety net; Wait below is the real check

	// The CLI announces the bound address on stderr before the campaign
	// starts; everything after is progress noise we drain in background.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "observability plane on http://"); i >= 0 {
				addr := line[i+len("observability plane on http://"):]
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(60 * time.Second):
		t.Fatal("serve address never announced")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	if body := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}
	// Mid-campaign the span taxonomy is live with exact quantiles.
	deadline := time.Now().Add(30 * time.Second)
	var metrics string
	for time.Now().Before(deadline) {
		metrics = get("/metrics")
		if strings.Contains(metrics, `letgo_span_duration_seconds{span="execute",quantile="0.99"}`) {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	for _, want := range []string{
		`letgo_span_duration_seconds{span="compile",quantile="0.5"}`,
		`letgo_span_duration_seconds{span="golden",quantile="0.95"}`,
		`letgo_span_duration_seconds{span="plan",quantile="0.5"}`,
		`letgo_span_duration_seconds{span="execute",quantile="0.99"}`,
		`letgo_span_duration_seconds{span="classify",quantile="0.95"}`,
		"letgo_outcomes_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	status := get("/status")
	for _, want := range []string{`"app": "CLAMR"`, `"mode": "LetGo-E"`, `"n": 2000`} {
		if !strings.Contains(status, want) {
			t.Errorf("/status missing %q:\n%s", want, status)
		}
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("campaign exit: %v", err)
	}
	if !strings.Contains(stdout.String(), "CLAMR") {
		t.Errorf("result table missing from stdout:\n%s", stdout.String())
	}
}

// TestUnknownSuffixRefused: the three tools that load a program file
// share one loader, and it refuses a suffix it does not know instead of
// parsing the bytes as an object image.
func TestUnknownSuffixRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the toolchain")
	}
	path := filepath.Join(t.TempDir(), "prog.txt")
	if err := os.WriteFile(path, []byte("func main() {}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tool := range []string{"letgo-run", "letgo-dbg", "letgo-vet"} {
		out, err := exec.Command("go", "run", "./cmd/"+tool, path).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "unknown file type") || !strings.Contains(string(out), "want .s, .mc or .lgo") {
			t.Errorf("%s %s: err=%v\n%s", tool, path, err, out)
		}
	}
}
