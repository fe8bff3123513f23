package letgo

// CLI acceptance for the networked campaign fabric (-coordinate /
// -worker): the usage contract for the new flags, and a real
// coordinator-plus-three-workers run in which one worker is SIGKILLed
// while holding a lease. The coordinator must observe the lease expire,
// re-dispatch the unit, and still render a table byte-identical to the
// single-process run.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestInjectCLICoordinatorFlagErrors pins the -coordinate/-worker usage
// contract: contradictory flag combinations exit 1 with a diagnostic
// naming the problem.
func TestInjectCLICoordinatorFlagErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the toolchain")
	}
	dir := t.TempDir()
	bin := buildInject(t, dir)
	journal := filepath.Join(dir, "j.jsonl")
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"coordinate with worker",
			[]string{"-coordinate", "127.0.0.1:0", "-worker", "http://127.0.0.1:1", "-journal", journal},
			"mutually exclusive"},
		{"coordinate with shard",
			[]string{"-coordinate", "127.0.0.1:0", "-journal", journal, "-shard", "1/3"},
			"mutually exclusive"},
		{"worker with merge",
			[]string{"-worker", "http://127.0.0.1:1", "-merge", filepath.Join(dir, "x-*.jsonl")},
			"mutually exclusive"},
		{"coordinate without journal",
			[]string{"-coordinate", "127.0.0.1:0"},
			"-coordinate requires -journal"},
		{"worker with journal",
			[]string{"-worker", "http://127.0.0.1:1", "-journal", journal},
			"no -journal or -resume"},
		{"worker with resume",
			[]string{"-worker", "http://127.0.0.1:1", "-resume"},
			"no -journal or -resume"},
		// Fleet flags outside the fleet; an explicit 0 counts as set.
		{"lease ttl without coordinate",
			[]string{"-lease-ttl", "0"},
			"-lease-ttl requires -coordinate"},
		{"unit size on a worker",
			[]string{"-worker", "http://127.0.0.1:1", "-unit-size", "5"},
			"-unit-size requires -coordinate"},
		{"worker name without worker",
			[]string{"-coordinate", "127.0.0.1:0", "-journal", journal, "-worker-name", "w"},
			"-worker-name requires -worker"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-apps", "CLAMR", "-n", "4"}, tc.args...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			if code := exitCode(err); code != 1 {
				t.Errorf("exit code = %d, want 1\n%s", code, out)
			}
			if !strings.Contains(string(out), tc.wantErr) {
				t.Errorf("output missing %q:\n%s", tc.wantErr, out)
			}
		})
	}
}

// fabricStatus is the slice of /fabric/status this test reads.
type fabricStatus struct {
	UnitsLeased   int `json:"units_leased"`
	LeasesExpired int `json:"leases_expired"`
}

// pollFabricStatus polls the coordinator's /fabric/status until ok
// accepts a snapshot or the deadline passes.
func pollFabricStatus(t *testing.T, base string, deadline time.Time, what string, ok func(fabricStatus) bool) {
	t.Helper()
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/fabric/status")
		if err == nil {
			var st fabricStatus
			derr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if derr == nil && ok(st) {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("coordinator never reached: %s", what)
}

// TestInjectCLICoordinatedKillAndSteal is the fabric's end-to-end
// acceptance: a coordinator and three worker processes, the first of
// which is SIGKILLed while it holds a lease. The campaign must finish,
// at least one lease must be observed expiring, and the coordinator's
// table must be byte-identical to the single-process reference.
func TestInjectCLICoordinatedKillAndSteal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the toolchain and real processes")
	}
	dir := t.TempDir()
	bin := buildInject(t, dir)
	args := []string{"-apps", "CLAMR", "-n", "600", "-mode", "E", "-seed", "11", "-workers", "2"}

	want, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	coord := exec.Command(bin, append(args,
		"-coordinate", "127.0.0.1:0",
		"-journal", filepath.Join(dir, "coord.jsonl"),
		"-unit-size", "25",
		"-lease-ttl", "500ms")...)
	coordErr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var coordOut strings.Builder
	coord.Stdout = &coordOut
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill() //nolint:errcheck // cleanup on failure paths

	// The coordinator announces its bound address on stderr.
	base := ""
	sc := bufio.NewScanner(coordErr)
	for sc.Scan() {
		if _, rest, found := strings.Cut(sc.Text(), "fabric coordinator on "); found {
			base = strings.TrimSpace(rest)
			break
		}
	}
	if base == "" {
		t.Fatalf("coordinator never announced its address: %v", sc.Err())
	}
	// Keep draining stderr so the coordinator cannot block on the pipe.
	go func() {
		for sc.Scan() {
		}
	}()

	worker := func(name string) *exec.Cmd {
		w := exec.Command(bin, "-worker", base, "-worker-name", name, "-workers", "2")
		w.Stdout, w.Stderr = nil, nil
		return w
	}

	// Start only the victim first, so the lease it will die holding is
	// unambiguous. Wait until it actually holds one, then SIGKILL it.
	deadline := time.Now().Add(2 * time.Minute)
	victim := worker("victim")
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	pollFabricStatus(t, base, deadline, "a unit leased to the victim",
		func(st fabricStatus) bool { return st.UnitsLeased >= 1 })
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := victim.Wait(); err == nil {
		t.Error("SIGKILLed victim exited cleanly")
	}

	// The survivors finish the campaign, stealing the victim's unit when
	// its lease expires.
	w2, w3 := worker("survivor-2"), worker("survivor-3")
	if err := w2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w3.Start(); err != nil {
		t.Fatal(err)
	}
	pollFabricStatus(t, base, deadline, "the victim's lease expiring",
		func(st fabricStatus) bool { return st.LeasesExpired >= 1 })

	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v\n%s", err, coordOut.String())
	}
	if err := w2.Wait(); err != nil {
		t.Errorf("survivor-2: %v", err)
	}
	if err := w3.Wait(); err != nil {
		t.Errorf("survivor-3: %v", err)
	}

	if got := coordOut.String(); got != string(want) {
		t.Errorf("coordinated table differs from single-process run:\n--- coordinated\n%s--- reference\n%s", got, want)
	}
}
