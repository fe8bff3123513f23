package analysis

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/asm"
)

// update rewrites testdata/facts.golden instead of comparing against it:
// go test ./internal/analysis -run Facts -update
var update = flag.Bool("update", false, "rewrite testdata/facts.golden")

const factsGoldenPath = "testdata/facts.golden"

// midEntry enters main past its prologue, so the program entry seeds a
// second block of the function and joins with the fall-through path.
const midEntry = `
	.entry .go
	.global out 8
	main:
	    push bp
	    mov bp, sp
	.go:
	    li x1, 3
	    li x2, out
	    st x1, [x2+0]
	    halt
`

// factsDigest hashes every fact the passes publish: per block,
// reachability and live-in; per PC, the depth state, live-out, frame
// bound, read/write regions and (with outputs) the can-reach set; then
// the region partition, the memory-flow graph, the live set and the
// lint findings.
func factsDigest(t *testing.T, a *Analysis, outputs []string) string {
	t.Helper()
	h := sha256.New()
	for _, b := range a.Blocks {
		fmt.Fprintf(h, "b%d reach=%v liveIn=%v\n", b.Index, a.reach[b.Index], a.liveIn[b.Index])
	}
	r := a.Regions()
	var ss *StateSet
	if len(outputs) > 0 {
		ss = checkpointSet(t, a, outputs...)
	}
	for i := range a.Prog.Instrs {
		addr := a.addr(i)
		d := a.depthIn[i]
		bound, src := a.FrameBoundAt(addr)
		fmt.Fprintf(h, "0x%x depth=%v/%v/%v liveOut=%v bound=%d/%v reads=%v writes=%v",
			addr, d.reached, d.sp, d.bp, a.liveOut[i], bound, src, r.Reads[i].Members(), r.Writes[i].Members())
		if ss != nil {
			fmt.Fprintf(h, " can=%v", ss.canOut[i])
		}
		fmt.Fprintln(h)
	}
	for _, reg := range r.All {
		fmt.Fprintf(h, "region %+v\n", *reg)
	}
	if ss != nil {
		for ri, flow := range a.deps.MemFlow {
			fmt.Fprintf(h, "flow %d <- %v\n", ri, flow.Members())
		}
		fmt.Fprintf(h, "live %v\n", ss.Live.Members())
		fs, err := a.VetOutputs(outputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			fmt.Fprintln(h, f)
		}
	}
	for _, f := range a.Vet() {
		fmt.Fprintln(h, f)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFactsGolden pins every per-PC fact of the six apps, AMG and the asm
// fixtures: a pass that computes any fact differently fails here, even
// when no snapshot summary moves.
func TestFactsGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# sha256 of every analysis fact per program\n")
	b.WriteString("# Regenerate: go test ./internal/analysis -run Facts -update\n")
	for _, app := range append(apps.All(), apps.Extensions()...) {
		prog, err := app.Compile()
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", app.Name, factsDigest(t, Analyze(prog), app.AcceptanceGlobals()))
	}
	for _, fx := range []struct {
		name, src string
		outputs   []string
	}{
		{"balanced", balanced, nil},
		{"stateApp", stateApp, []string{"out"}},
		{"loopApp", loopApp, []string{"out"}},
		{"irreducibleLoop", irreducibleLoop, nil},
		{"escapingBranch", escapingBranch, []string{"out"}},
		{"midEntry", midEntry, []string{"out"}},
	} {
		prog, err := asm.Assemble(fx.src)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", fx.name, factsDigest(t, Analyze(prog), fx.outputs))
	}

	got := b.String()
	if *update {
		if err := os.WriteFile(factsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(factsGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/analysis -run Facts -update)", err)
	}
	if got != string(want) {
		t.Errorf("analysis facts drifted from %s.\nRegenerate with: go test ./internal/analysis -run Facts -update\n--- got ---\n%s--- want ---\n%s",
			factsGoldenPath, got, want)
	}
}
