package main

import (
	"fmt"
	"strings"
	"testing"

	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/lang"
)

const dbgSrc = `
	var g [8] float;
	var out float;
	func main() {
		var i int;
		for (i = 0; i < 8; i = i + 1) {
			g[i] = float(i) * 1.5;
		}
		out = g[2] + g[999999999];
		out = out + 1.0;
	}
`

func newTestSession(t *testing.T) (*session, *strings.Builder) {
	t.Helper()
	prog, err := lang.Compile(dbgSrc)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	s, err := newSession(prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	return s, &out
}

func run(t *testing.T, s *session, out *strings.Builder, cmds ...string) string {
	t.Helper()
	out.Reset()
	for _, c := range cmds {
		if quit := s.exec(c); quit {
			t.Fatalf("command %q quit the session", c)
		}
	}
	return out.String()
}

func TestRunToCrashAndManualLetGo(t *testing.T) {
	s, out := newTestSession(t)
	got := run(t, s, out, "handle SIGSEGV stop", "run")
	if !strings.Contains(got, "stopped on SIGSEGV") {
		t.Fatalf("output: %s", got)
	}
	got = run(t, s, out, "letgo", "continue")
	if !strings.Contains(got, "elided SIGSEGV") || !strings.Contains(got, "halted normally") {
		t.Fatalf("output: %s", got)
	}
}

func TestDefaultDispositionTerminates(t *testing.T) {
	s, out := newTestSession(t)
	got := run(t, s, out, "run")
	if !strings.Contains(got, "terminated by SIGSEGV") {
		t.Fatalf("output: %s", got)
	}
}

func TestBreakpointAndStep(t *testing.T) {
	s, out := newTestSession(t)
	got := run(t, s, out, "break main", "run")
	if !strings.Contains(got, "breakpoint at") {
		t.Fatalf("output: %s", got)
	}
	got = run(t, s, out, "step 3", "info break")
	if !strings.Contains(got, "pc=0x") || !strings.Contains(got, "hits=1") {
		t.Fatalf("output: %s", got)
	}
}

// TestContinueFromLoopBodyBreakpoint drives step-over-on-resume at the
// prompt: a breakpoint on the loop's store stops at every iteration, the
// continue that resumes from it stepping over only the hit it sits on.
func TestContinueFromLoopBodyBreakpoint(t *testing.T) {
	s, out := newTestSession(t)
	var store uint64
	for i, in := range s.prog.Instrs {
		if in.Op == isa.FST {
			store = isa.CodeBase + uint64(i)*isa.InstrBytes // g[i] = ...
			break
		}
	}
	got := run(t, s, out, fmt.Sprintf("break 0x%x", store), "run", "continue", "continue")
	for hit := 1; hit <= 3; hit++ {
		if !strings.Contains(got, fmt.Sprintf("(hit %d)", hit)) {
			t.Fatalf("no stop at hit %d:\n%s", hit, got)
		}
	}
	if g1, err := s.m.ReadGlobalFloat("g", 8); err != nil || g1 != 1.5 {
		t.Errorf("g[1] = %v, %v at the third hit; want 1.5 (two iterations done)", g1, err)
	}
}

func TestRegsAndMemoryExamine(t *testing.T) {
	s, out := newTestSession(t)
	run(t, s, out, "handle SIGSEGV stop", "run")
	got := run(t, s, out, "regs")
	if !strings.Contains(got, "sp ") || !strings.Contains(got, "f0 ") {
		t.Fatalf("regs output: %s", got)
	}
	got = run(t, s, out, "x g 3")
	if !strings.Contains(got, "(1.5)") {
		t.Fatalf("memory output: %s", got)
	}
}

func TestDisasAndSetAndPC(t *testing.T) {
	s, out := newTestSession(t)
	got := run(t, s, out, "disas main")
	if !strings.Contains(got, "push bp") {
		t.Fatalf("disas output: %s", got)
	}
	got = run(t, s, out, "set x3 42", "set f1 2.5", "regs")
	if !strings.Contains(got, "002a") || !strings.Contains(got, "2.5") {
		t.Fatalf("set/regs output: %s", got)
	}
	got = run(t, s, out, "pc")
	if !strings.Contains(got, "pc=0x") {
		t.Fatalf("pc output: %s", got)
	}
}

func TestErrorsAreReportedNotFatal(t *testing.T) {
	s, out := newTestSession(t)
	got := run(t, s, out,
		"break nowhere",
		"x 0x2 1",
		"handle SIGWHAT stop",
		"set q9 1",
		"letgo",
		"frobnicate",
	)
	for _, want := range []string{"cannot resolve", "unknown signal", "unknown register", "not stopped on a signal", "unknown command"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestQuit(t *testing.T) {
	s, _ := newTestSession(t)
	if !s.exec("quit") {
		t.Error("quit did not quit")
	}
	if s.exec("") {
		t.Error("empty line quit")
	}
}

func TestHelpListsCommands(t *testing.T) {
	s, out := newTestSession(t)
	got := run(t, s, out, "help")
	for _, want := range []string{"break", "handle", "letgo", "disas"} {
		if !strings.Contains(got, want) {
			t.Errorf("help missing %q", want)
		}
	}
}

func TestCheckpointRestoreSession(t *testing.T) {
	s, out := newTestSession(t)
	run(t, s, out, "break main", "run", "step 5")
	retiredAt := s.m.Retired
	pcAt := s.m.PC
	got := run(t, s, out, "checkpoint mid")
	if !strings.Contains(got, "checkpoint mid: pc=0x") {
		t.Fatalf("output: %s", got)
	}
	run(t, s, out, "step 10")
	if s.m.Retired == retiredAt {
		t.Fatal("stepping did not advance the machine")
	}
	divergedX := s.m.X

	got = run(t, s, out, "restore mid")
	if !strings.Contains(got, "restored mid") {
		t.Fatalf("output: %s", got)
	}
	if s.m.Retired != retiredAt || s.m.PC != pcAt {
		t.Fatalf("restore landed at (pc=0x%x, retired=%d), want (0x%x, %d)",
			s.m.PC, s.m.Retired, pcAt, retiredAt)
	}
	// Replaying the same steps reproduces the diverged state exactly: the
	// checkpoint is a true snapshot, not a shared mutable reference.
	run(t, s, out, "step 10")
	if s.m.X != divergedX {
		t.Fatal("replay after restore diverged from the original execution")
	}

	// A checkpoint survives being restored and can be restored again.
	got = run(t, s, out, "restore mid", "info checkpoints")
	if !strings.Contains(got, "restored mid") || !strings.Contains(got, "checkpoint mid:") {
		t.Fatalf("output: %s", got)
	}
	if s.m.Retired != retiredAt {
		t.Fatalf("second restore at retired=%d, want %d", s.m.Retired, retiredAt)
	}

	// Breakpoints persist across restore (the debugger is repointed, not
	// rebuilt), and unknown names are reported.
	got = run(t, s, out, "info break", "restore nope")
	if !strings.Contains(got, "breakpoint 0x") || !strings.Contains(got, `no checkpoint "nope"`) {
		t.Fatalf("output: %s", got)
	}
}

func TestCheckpointAutoNames(t *testing.T) {
	s, out := newTestSession(t)
	got := run(t, s, out, "checkpoint", "checkpoint", "info checkpoints")
	if !strings.Contains(got, "checkpoint ck0:") || !strings.Contains(got, "checkpoint ck1:") {
		t.Fatalf("output: %s", got)
	}
}
