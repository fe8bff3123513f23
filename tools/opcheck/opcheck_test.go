package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles opcheck into a temp dir and returns its path.
func buildTool(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "opcheck")
	cmd := exec.Command("go", "build", "-o", tool, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building opcheck: %v\n%s", err, out)
	}
	return tool
}

func runVet(t *testing.T, tool, pattern string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+tool, pattern)
	cmd.Dir = "../.." // repo root
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	return buf.String(), err
}

// TestRepoIsOpSwitchClean runs opcheck over the whole module via the real
// go vet -vettool protocol: every switch over isa.Op must either have a
// default clause or enumerate all opcodes.
func TestRepoIsOpSwitchClean(t *testing.T) {
	tool := buildTool(t)
	out, err := runVet(t, tool, "./...")
	if err != nil {
		t.Fatalf("go vet -vettool=opcheck ./... failed: %v\n%s", err, out)
	}
}

// TestFlagsNonExhaustiveSwitch checks the fixture package with a gappy
// defaultless switch is flagged through the same protocol.
func TestFlagsNonExhaustiveSwitch(t *testing.T) {
	tool := buildTool(t)
	out, err := runVet(t, tool, "./tools/opcheck/testdata/badswitch")
	if err == nil {
		t.Fatalf("expected vet failure on badswitch fixture, got success:\n%s", out)
	}
	if !strings.Contains(out, "switch over isa.Op has no default clause") {
		t.Fatalf("missing diagnostic in output:\n%s", out)
	}
	if !strings.Contains(out, "ADD") {
		t.Fatalf("diagnostic should name missing opcodes:\n%s", out)
	}
}

// TestFlagsMarkedSwitchDespiteDefault checks the //opcheck:exhaustive
// directive: a gappy switch with a default clause — normally exempt — is
// still flagged when marked. This is what keeps the Step and driveFast
// dispatch cores honest as the ISA grows.
func TestFlagsMarkedSwitchDespiteDefault(t *testing.T) {
	tool := buildTool(t)
	out, err := runVet(t, tool, "./tools/opcheck/testdata/markedswitch")
	if err == nil {
		t.Fatalf("expected vet failure on markedswitch fixture, got success:\n%s", out)
	}
	if !strings.Contains(out, "is marked opcheck:exhaustive") {
		t.Fatalf("missing directive diagnostic in output:\n%s", out)
	}
	if !strings.Contains(out, "ADD") {
		t.Fatalf("diagnostic should name missing opcodes:\n%s", out)
	}
}

// TestAcceptsPackageLocalPseudoOp checks the shape vm.driveFast's table
// has: an //opcheck:exhaustive switch that enumerates every opcode plus an
// arm for a package-local pseudo-op passes, and the same switch with one
// real opcode dropped is still flagged — the extra arm buys no slack.
func TestAcceptsPackageLocalPseudoOp(t *testing.T) {
	tool := buildTool(t)
	if out, err := runVet(t, tool, "./tools/opcheck/testdata/pseudoop"); err != nil {
		t.Fatalf("pseudoop fixture should pass: %v\n%s", err, out)
	}

	src, err := os.ReadFile("testdata/pseudoop/pseudoop.go")
	if err != nil {
		t.Fatal(err)
	}
	dropped := bytes.Replace(src, []byte(", isa.CYCLES:"), []byte(":"), 1)
	if bytes.Equal(dropped, src) {
		t.Fatal("fixture no longer lists isa.CYCLES where the test drops it")
	}
	dir, err := os.MkdirTemp("testdata", "pseudoop-dropped-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	if err := os.WriteFile(filepath.Join(dir, "pseudoop.go"), dropped, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runVet(t, tool, "./tools/opcheck/"+filepath.ToSlash(dir))
	if err == nil {
		t.Fatalf("expected vet failure with isa.CYCLES dropped, got success:\n%s", out)
	}
	if !strings.Contains(out, "is marked opcheck:exhaustive and misses: CYCLES") {
		t.Fatalf("diagnostic should name exactly the dropped opcode:\n%s", out)
	}
}
