package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelectApps(t *testing.T) {
	for sel, want := range map[string]string{
		"hpl":         "HPL",
		"CLAMR, SNAP": "CLAMR SNAP",
		"iterative":   "LULESH CLAMR COMD SNAP PENNANT",
	} {
		list, err := SelectApps(sel)
		if err != nil {
			t.Fatalf("%q: %v", sel, err)
		}
		var names []string
		for _, a := range list {
			names = append(names, a.Name)
		}
		if got := strings.Join(names, " "); got != want {
			t.Errorf("SelectApps(%q) = %s, want %s", sel, got, want)
		}
	}
	if _, err := SelectApps("CLAMR,NOPE"); err == nil || !strings.Contains(err.Error(), `unknown app "NOPE"`) {
		t.Errorf("unknown app: %v", err)
	}
}

func TestLoadFileDispatchesOnSuffix(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mc := write("p.mc", "func main() {}")
	prog, err := LoadFile(mc)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(write("p.lgo", string(obj))); err != nil {
		t.Errorf(".lgo round trip: %v", err)
	}
	if _, err := LoadFile(write("p.s", ".entry _start\n_start:\n    halt\n")); err != nil {
		t.Errorf(".s: %v", err)
	}
	// An object image under a suffix the loader does not know is refused,
	// not parsed: the suffix is the contract.
	_, err = LoadFile(write("p.bin", string(obj)))
	if err == nil || !strings.Contains(err.Error(), "unknown file type") {
		t.Errorf("unknown suffix: %v", err)
	}
	if _, _, err := LoadProgram("letgo-run", "", nil); err == nil || !strings.Contains(err.Error(), "usage: letgo-run") {
		t.Errorf("no input: %v", err)
	}
}
