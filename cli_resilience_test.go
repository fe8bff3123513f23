package letgo

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildTool compiles one command's binary into dir, so signal-delivery
// and exit-code tests target the tool itself rather than `go run`'s
// wrapper process.
func buildTool(t *testing.T, dir, tool string) string {
	t.Helper()
	bin := filepath.Join(dir, tool)
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+tool).CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", tool, err, out)
	}
	return bin
}

func buildInject(t *testing.T, dir string) string { return buildTool(t, dir, "letgo-inject") }

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}

// TestInjectCLIErrorPaths pins the exit-code contract: 1 for usage and
// I/O errors, 2 for unparseable flags, 3 for interrupted runs.
func TestInjectCLIErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the toolchain")
	}
	bin := buildInject(t, t.TempDir())
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"bad mode", []string{"-apps", "CLAMR", "-n", "4", "-mode", "Z"}, 1, "unknown mode"},
		{"bad engine", []string{"-apps", "CLAMR", "-n", "4", "-engine", "warp"}, 1, "unknown engine"},
		{"bad app", []string{"-apps", "NOPE", "-n", "4"}, 1, "unknown app"},
		{"bad format", []string{"-apps", "CLAMR", "-n", "4", "-format", "yaml"}, 1, "unknown format"},
		{"unwritable journal", []string{"-apps", "CLAMR", "-n", "4", "-journal", filepath.Join(t.TempDir(), "no", "dir", "j.jsonl")}, 1, "no such file"},
		{"resume without journal", []string{"-apps", "CLAMR", "-n", "4", "-resume"}, 1, "-resume requires -journal"},
		{"unparseable flag", []string{"-n", "not-a-number"}, 2, "invalid value"},
		{"deadline already expired", []string{"-apps", "CLAMR", "-n", "50", "-deadline", "1ns"}, 3, "interrupted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			if code := exitCode(err); code != tc.wantCode {
				t.Errorf("exit code = %d, want %d\n%s", code, tc.wantCode, out)
			}
			if !strings.Contains(string(out), tc.wantErr) {
				t.Errorf("output missing %q:\n%s", tc.wantErr, out)
			}
		})
	}
}

// TestInjectCLIKillAndResume delivers a real SIGINT mid-campaign, checks
// the partial exit (code 3, interrupted banner, journal on disk), then
// resumes and requires the final table to be byte-identical to an
// uninterrupted invocation.
func TestInjectCLIKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the toolchain")
	}
	dir := t.TempDir()
	bin := buildInject(t, dir)
	journal := filepath.Join(dir, "campaign.jsonl")
	args := []string{"-apps", "CLAMR", "-n", "4000", "-mode", "E", "-seed", "11", "-workers", "2"}

	// Reference: the same campaign, uninterrupted.
	want, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	cmd := exec.Command(bin, append(args, "-journal", journal)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	if code := exitCode(err); code == 0 {
		t.Skip("campaign finished before the signal landed; nothing to resume")
	} else if code != 3 {
		t.Fatalf("interrupted run exit code = %d, want 3\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted:") || !strings.Contains(stderr.String(), "-resume") {
		t.Errorf("missing interrupted banner on stderr: %s", stderr.String())
	}
	if fi, err := os.Stat(journal); err != nil || fi.Size() == 0 {
		t.Fatalf("journal missing after interrupt: %v", err)
	}

	got, err := exec.Command(bin, append(args, "-journal", journal, "-resume")...).Output()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed table differs from uninterrupted run:\n--- resumed\n%s--- reference\n%s", got, want)
	}
}

// TestSimCLIInterruptPublishesSinks delivers SIGINT to letgo-sim while its
// measured campaign runs: the exit is the interrupted one (code 3) and,
// exactly as for letgo-inject, -events-json and -metrics-out are published
// on the way out, with no temp file left next to them.
func TestSimCLIInterruptPublishesSinks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the toolchain")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "letgo-sim")
	out := filepath.Join(dir, "out")
	if err := os.Mkdir(out, 0o755); err != nil {
		t.Fatal(err)
	}
	events, metrics := filepath.Join(out, "e.jsonl"), filepath.Join(out, "m.prom")
	cmd := exec.Command(bin, "-seed-source", "measured", "-app", "CLAMR", "-n", "100000",
		"-events-json", events, "-metrics-out", metrics)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if code := exitCode(cmd.Wait()); code != 3 {
		t.Fatalf("interrupted run exit code = %d, want 3\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "letgo-sim: interrupted") {
		t.Errorf("missing interrupted banner on stderr: %s", stderr.String())
	}
	for _, p := range []string{events, metrics} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s not published after interrupt: %v", filepath.Base(p), err)
		}
	}
	ents, _ := os.ReadDir(out)
	if len(ents) != 2 {
		t.Errorf("want exactly the two published files, found %d (first %s)", len(ents), ents[0].Name())
	}
}
