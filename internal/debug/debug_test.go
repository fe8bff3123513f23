package debug

import (
	"testing"

	"github.com/letgo-hpc/letgo/internal/asm"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/vm"
)

func machine(t *testing.T, src string) *vm.Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(p, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

const loopSrc = `
	main:
	    li x1, 0
	    li x2, 5
	.loop:
	    bge x1, x2, .done
	    addi x1, x1, 1
	    jmp .loop
	.done:
	    halt
`

func TestRunToHalt(t *testing.T) {
	d := New(machine(t, loopSrc))
	stop := d.Run(1 << 16)
	if stop.Reason != StopHalt {
		t.Fatalf("stop = %+v, want halt", stop)
	}
	if d.IntReg(isa.X1) != 5 {
		t.Errorf("x1 = %d, want 5", d.IntReg(isa.X1))
	}
}

func TestBreakpointFirstHit(t *testing.T) {
	d := New(machine(t, loopSrc))
	bpAddr := isa.CodeBase + 3*isa.InstrBytes // the addi
	if _, err := d.SetBreakpoint(bpAddr, 0); err != nil {
		t.Fatal(err)
	}
	stop := d.Run(1 << 16)
	if stop.Reason != StopBreakpoint || stop.BP.Addr != bpAddr {
		t.Fatalf("stop = %+v, want breakpoint", stop)
	}
	if d.PC() != bpAddr {
		t.Errorf("pc = %#x, want %#x (before the instruction)", d.PC(), bpAddr)
	}
	if d.IntReg(isa.X1) != 0 {
		t.Errorf("x1 = %d: breakpoint stopped after execution", d.IntReg(isa.X1))
	}
}

func TestBreakpointIgnoreCountReachesNthInstance(t *testing.T) {
	d := New(machine(t, loopSrc))
	bpAddr := isa.CodeBase + 3*isa.InstrBytes
	if _, err := d.SetBreakpoint(bpAddr, 2); err != nil { // fire on 3rd hit
		t.Fatal(err)
	}
	stop := d.Run(1 << 16)
	if stop.Reason != StopBreakpoint {
		t.Fatalf("stop = %+v", stop)
	}
	if d.IntReg(isa.X1) != 2 {
		t.Errorf("x1 = %d, want 2 (two increments already done)", d.IntReg(isa.X1))
	}
	// The injector clears the breakpoint once the target instance is
	// reached; after that the program runs to completion.
	d.ClearBreakpoint(bpAddr)
	stop = d.Continue(1 << 16)
	if stop.Reason != StopHalt {
		t.Fatalf("resume stop = %+v, want halt", stop)
	}
	if d.IntReg(isa.X1) != 5 {
		t.Errorf("x1 = %d, want 5", d.IntReg(isa.X1))
	}
}

func TestBreakpointRetriggersOnLoopback(t *testing.T) {
	d := New(machine(t, loopSrc))
	bpAddr := isa.CodeBase + 3*isa.InstrBytes
	if _, err := d.SetBreakpoint(bpAddr, 0); err != nil {
		t.Fatal(err)
	}
	hits := 0
	stop := d.Run(1 << 16)
	for stop.Reason == StopBreakpoint {
		hits++
		stop = d.Continue(1 << 16)
	}
	if hits != 5 {
		t.Errorf("breakpoint hits = %d, want 5", hits)
	}
	if stop.Reason != StopHalt {
		t.Errorf("final stop = %+v", stop)
	}
}

func TestBreakpointOnBadAddress(t *testing.T) {
	d := New(machine(t, loopSrc))
	if _, err := d.SetBreakpoint(0xDEAD, 0); err == nil {
		t.Error("breakpoint on non-code address accepted")
	}
}

func TestClearBreakpoint(t *testing.T) {
	d := New(machine(t, loopSrc))
	bpAddr := isa.CodeBase + 3*isa.InstrBytes
	if _, err := d.SetBreakpoint(bpAddr, 0); err != nil {
		t.Fatal(err)
	}
	if len(d.Breakpoints()) != 1 {
		t.Fatal("breakpoint not listed")
	}
	d.ClearBreakpoint(bpAddr)
	if stop := d.Run(1 << 16); stop.Reason != StopHalt {
		t.Errorf("stop = %+v, want halt after clear", stop)
	}
}

const crashSrc = `
	main:
	    li x1, 0x40000000000
	    ld x2, [x1]
	    halt
`

func TestSignalDefaultTerminates(t *testing.T) {
	d := New(machine(t, crashSrc))
	stop := d.Run(1 << 16)
	if stop.Reason != StopTerminated || stop.Signal != vm.SIGSEGV {
		t.Fatalf("stop = %+v, want terminated SIGSEGV", stop)
	}
}

func TestSignalStopDisposition(t *testing.T) {
	d := New(machine(t, crashSrc))
	// The paper's Table 1: stop, do not pass to the program.
	d.Handle(vm.SIGSEGV, Disposition{Stop: true, Pass: false})
	stop := d.Run(1 << 16)
	if stop.Reason != StopSignal || stop.Signal != vm.SIGSEGV {
		t.Fatalf("stop = %+v, want signal stop", stop)
	}
	// The program is suspended at the faulting instruction with state
	// uncommitted — the client can now repair and continue.
	if d.PC() != isa.CodeBase+isa.InstrBytes {
		t.Errorf("pc = %#x", d.PC())
	}
	// Skip the faulting instruction manually and continue to completion.
	d.SetPC(d.PC() + isa.InstrBytes)
	stop = d.Continue(1 << 16)
	if stop.Reason != StopHalt {
		t.Fatalf("stop = %+v, want halt", stop)
	}
}

func TestDispositionTableDefaults(t *testing.T) {
	d := New(machine(t, loopSrc))
	disp := d.DispositionFor(vm.SIGSEGV)
	if disp.Stop || !disp.Pass {
		t.Errorf("default disposition = %+v, want terminate", disp)
	}
	d.Handle(vm.SIGBUS, Disposition{Stop: true})
	if !d.DispositionFor(vm.SIGBUS).Stop {
		t.Error("Handle did not take effect")
	}
	if d.DispositionFor(vm.SIGABRT).Stop {
		t.Error("Handle leaked to other signals")
	}
}

func TestRegisterAccess(t *testing.T) {
	d := New(machine(t, loopSrc))
	d.SetIntReg(isa.X9, 0xABCD)
	if d.IntReg(isa.X9) != 0xABCD {
		t.Error("int reg roundtrip failed")
	}
	d.SetFloatReg(isa.F3, -1.25)
	if d.FloatReg(isa.F3) != -1.25 {
		t.Error("float reg roundtrip failed")
	}
}

func TestBudgetStop(t *testing.T) {
	d := New(machine(t, "main:\n jmp main\n"))
	stop := d.Run(500)
	if stop.Reason != StopBudget {
		t.Fatalf("stop = %+v, want budget", stop)
	}
	if d.M.Retired != 500 {
		t.Errorf("retired = %d", d.M.Retired)
	}
}

func TestStepInstr(t *testing.T) {
	d := New(machine(t, loopSrc))
	if stop := d.StepInstr(); stop != nil {
		t.Fatalf("step 1 stop = %+v", stop)
	}
	if d.M.Retired != 1 {
		t.Errorf("retired = %d", d.M.Retired)
	}
	// Stepping a crashing instruction reports the signal per disposition.
	dc := New(machine(t, crashSrc))
	dc.Handle(vm.SIGSEGV, Disposition{Stop: true})
	if stop := dc.StepInstr(); stop != nil {
		t.Fatalf("first step stop = %+v", stop)
	}
	stop := dc.StepInstr()
	if stop == nil || stop.Reason != StopSignal {
		t.Fatalf("crash step stop = %+v", stop)
	}
}

func TestContinueAfterSignalStopWithBreakpointSet(t *testing.T) {
	// A breakpoint at the faulting instruction must not block the signal
	// stop path, and continuing after repair must not double count.
	d := New(machine(t, crashSrc))
	d.Handle(vm.SIGSEGV, Disposition{Stop: true})
	faultAddr := isa.CodeBase + isa.InstrBytes
	bp, err := d.SetBreakpoint(faultAddr, 0)
	if err != nil {
		t.Fatal(err)
	}
	stop := d.Run(1 << 16)
	if stop.Reason != StopBreakpoint {
		t.Fatalf("stop = %+v, want breakpoint first", stop)
	}
	stop = d.Continue(1 << 16)
	if stop.Reason != StopSignal {
		t.Fatalf("stop = %+v, want signal", stop)
	}
	if bp.Hits != 1 {
		t.Errorf("hits = %d, want 1", bp.Hits)
	}
	d.SetPC(faultAddr + isa.InstrBytes)
	stop = d.Continue(1 << 16)
	if stop.Reason != StopHalt {
		t.Fatalf("stop = %+v, want halt", stop)
	}
}

func TestRunToDynamicPositionsExactly(t *testing.T) {
	d := New(machine(t, loopSrc))
	if stop := d.RunToDynamic(6); stop != nil {
		t.Fatalf("unexpected stop: %+v", stop)
	}
	if d.M.Retired != 6 {
		t.Fatalf("retired = %d, want 6", d.M.Retired)
	}
	// Equivalence with breakpoint-instance counting: a fresh machine with a
	// breakpoint ignoring the first hit lands on the same (pc, retired).
	ref := New(machine(t, loopSrc))
	bpAddr := isa.CodeBase + 3*isa.InstrBytes // the addi, 2nd dynamic instance
	if _, err := ref.SetBreakpoint(bpAddr, 1); err != nil {
		t.Fatal(err)
	}
	if stop := ref.Run(1 << 16); stop.Reason != StopBreakpoint {
		t.Fatalf("reference stop = %+v", stop)
	}
	if ref.M.Retired != d.M.Retired || ref.M.PC != d.M.PC {
		t.Fatalf("RunToDynamic at (pc=%#x, retired=%d), breakpoint at (pc=%#x, retired=%d)",
			d.M.PC, d.M.Retired, ref.M.PC, ref.M.Retired)
	}
	// Running past the end stops at halt.
	if stop := d.RunToDynamic(1 << 16); stop == nil || stop.Reason != StopHalt {
		t.Fatalf("expected halt stop, got %+v", stop)
	}
}

func TestRunToDynamicIgnoresBreakpoints(t *testing.T) {
	d := New(machine(t, loopSrc))
	if _, err := d.SetBreakpoint(isa.CodeBase, 0); err != nil {
		t.Fatal(err)
	}
	if stop := d.RunToDynamic(3); stop != nil {
		t.Fatalf("RunToDynamic honored a breakpoint: %+v", stop)
	}
	if d.M.Retired != 3 {
		t.Fatalf("retired = %d, want 3", d.M.Retired)
	}
}

// TestStepInstrHaltedSurfacesStopError is the regression test for the
// old no-breakpoint path that mapped any non-trap, non-budget machine
// error to StopHalt: stepping an already-halted machine is an error, and
// must be reported as its own stop reason with the error attached — a
// caller treating it as a clean halt would double-count completions.
func TestStepInstrHaltedSurfacesStopError(t *testing.T) {
	d := New(machine(t, loopSrc))
	if stop := d.Run(1 << 16); stop.Reason != StopHalt {
		t.Fatalf("setup run: %+v", stop)
	}
	stop := d.StepInstr()
	if stop == nil || stop.Reason != StopError {
		t.Fatalf("stop = %+v, want StopError", stop)
	}
	if stop.Err == nil {
		t.Fatal("StopError with nil Err")
	}
	if stop.Reason.String() != "error" {
		t.Errorf("StopError.String() = %q", stop.Reason.String())
	}
}

// TestContinueOnHaltedMachineIsHalt pins the companion behavior: Continue
// on a machine that already halted is a StopHalt (the driver checks the
// halt flag before stepping), not a StopError.
func TestContinueOnHaltedMachineIsHalt(t *testing.T) {
	d := New(machine(t, loopSrc))
	if stop := d.Run(1 << 16); stop.Reason != StopHalt {
		t.Fatalf("setup run: %+v", stop)
	}
	if stop := d.Continue(1 << 16); stop.Reason != StopHalt {
		t.Fatalf("Continue after halt = %+v, want StopHalt", stop)
	}
}

// denseRef is the breakpoint logic as it ran before breakpoints were
// planted in the instruction stream: one dense Before hook asking at
// every instruction, "first" meaning the first instruction executed. The
// debugger's sparse hook is pinned against it stop by stop.
type denseRef struct {
	m           *vm.Machine
	breakpoints map[uint64]*Breakpoint
	resumeFrom  uint64
	hasResume   bool
}

func newDenseRef(m *vm.Machine, bps ...Breakpoint) *denseRef {
	r := &denseRef{m: m, breakpoints: map[uint64]*Breakpoint{}}
	for _, bp := range bps {
		bp := bp
		r.breakpoints[bp.Addr] = &bp
	}
	return r
}

// cont resumes the reference machine and returns the breakpoint it
// stopped at, or nil for any other stop.
func (r *denseRef) cont(budget uint64) (hit *Breakpoint) {
	first := true
	vm.Drive(r.m, budget, vm.Hooks{Before: func(m *vm.Machine) bool {
		if bp, ok := r.breakpoints[m.PC]; ok && bp.Enabled {
			if !(first && r.hasResume && r.resumeFrom == m.PC) {
				bp.Hits++
				if bp.Hits > bp.Ignore {
					r.resumeFrom, r.hasResume = m.PC, true
					hit = bp
					return true
				}
			}
		}
		first = false
		return false
	}})
	return hit
}

const stepOverSrc = `
	main:
	    li x1, 0
	    li x2, 8
	.loop:
	    bge x1, x2, .done
	    addi x1, x1, 1
	    jmp .loop
	.done:
	    halt
`

// sameStop requires the debugger and the dense reference to have stopped
// at the same breakpoint hit, on machines in the same place.
func sameStop(t *testing.T, label string, d *Debugger, stop *Stop, ref *denseRef, want *Breakpoint) {
	t.Helper()
	if (stop.Reason == StopBreakpoint) != (want != nil) {
		t.Fatalf("%s: stop = %v, reference breakpoint = %v", label, stop.Reason, want)
	}
	if want != nil && (stop.BP.Addr != want.Addr || stop.BP.Hits != want.Hits) {
		t.Fatalf("%s: stopped at %#x hit %d, reference at %#x hit %d",
			label, stop.BP.Addr, stop.BP.Hits, want.Addr, want.Hits)
	}
	if d.M.PC != ref.m.PC || d.M.Retired != ref.m.Retired || d.M.X != ref.m.X {
		t.Fatalf("%s: machine at pc=%#x retired=%d x1=%d, reference pc=%#x retired=%d x1=%d", label,
			d.M.PC, d.M.Retired, d.M.X[isa.X1], ref.m.PC, ref.m.Retired, ref.m.X[isa.X1])
	}
}

// TestBreakpointStepOverInLoopBody pins step-over-on-resume under the
// sparse hook: the hook is entered only on arrival at a breakpoint, so
// resuming from a loop-body breakpoint must step over exactly the arrival
// it is sitting on and stop at the very next one — hits 1, 2, 3, 4 (and
// 3, 4, 5, 6 with an ignore count of 2), never every other one.
func TestBreakpointStepOverInLoopBody(t *testing.T) {
	const budget = 1 << 16
	addi := isa.CodeBase + 3*isa.InstrBytes
	for _, ignore := range []uint64{0, 2} {
		d := New(machine(t, stepOverSrc))
		if _, err := d.SetBreakpoint(addi, ignore); err != nil {
			t.Fatal(err)
		}
		ref := newDenseRef(machine(t, stepOverSrc), Breakpoint{Addr: addi, Ignore: ignore, Enabled: true})
		stop := d.Run(budget)
		for n := uint64(1); n <= 4; n++ {
			want := ref.cont(budget)
			sameStop(t, "loop body", d, stop, ref, want)
			if stop.Reason != StopBreakpoint || stop.BP.Hits != ignore+n || d.M.X[isa.X1] != ignore+n-1 {
				t.Fatalf("ignore %d, stop %d: %v at hit %d with x1=%d", ignore, n, stop.Reason, stop.BP.Hits, d.M.X[isa.X1])
			}
			stop = d.Continue(budget)
		}
	}
}

// TestBreakpointStepOverOnlyWhileOnIt pins the other half: only a
// debuggee still sitting on the breakpoint it stopped at steps over it.
// Moved off it by the client (LetGo's PC advance), the next arrival
// counts; and with two breakpoints in the loop body, resuming from one
// does not swallow the other.
func TestBreakpointStepOverOnlyWhileOnIt(t *testing.T) {
	const budget = 1 << 16
	addi := isa.CodeBase + 3*isa.InstrBytes
	jmp := isa.CodeBase + 4*isa.InstrBytes

	d := New(machine(t, stepOverSrc))
	d.SetBreakpoint(addi, 0)
	ref := newDenseRef(machine(t, stepOverSrc), Breakpoint{Addr: addi, Enabled: true})
	sameStop(t, "run", d, d.Run(budget), ref, ref.cont(budget))
	d.SetPC(jmp) // skip the addi: the loop comes back round to it
	ref.m.PC = jmp
	stop, want := d.Continue(budget), ref.cont(budget)
	sameStop(t, "moved off", d, stop, ref, want)
	if stop.Reason != StopBreakpoint || stop.BP.Hits != 2 || d.M.X[isa.X1] != 0 {
		t.Fatalf("moved off: hit %d with x1=%d, want hit 2 with x1=0", stop.BP.Hits, d.M.X[isa.X1])
	}

	d = New(machine(t, stepOverSrc))
	d.SetBreakpoint(addi, 0)
	d.SetBreakpoint(jmp, 1)
	ref = newDenseRef(machine(t, stepOverSrc),
		Breakpoint{Addr: addi, Enabled: true}, Breakpoint{Addr: jmp, Ignore: 1, Enabled: true})
	stop = d.Run(budget)
	for n := 0; n < 20 && stop.Reason == StopBreakpoint; n++ {
		sameStop(t, "two breakpoints", d, stop, ref, ref.cont(budget))
		stop = d.Continue(budget)
	}
	sameStop(t, "two breakpoints, end", d, stop, ref, ref.cont(budget))
	if stop.Reason != StopHalt {
		t.Fatalf("final stop = %v, want halt", stop.Reason)
	}

	// The breakpoint stopped on is cleared and another remains: the step-over
	// must not be spent on the first arrival at the other one.
	d = New(machine(t, stepOverSrc))
	d.SetBreakpoint(addi, 0)
	d.Run(budget)
	d.ClearBreakpoint(addi)
	d.SetBreakpoint(jmp, 0)
	if stop = d.Continue(budget); stop.Reason != StopBreakpoint || stop.BP.Hits != 1 || d.M.Retired != 4 {
		t.Fatalf("after clearing the resumed breakpoint: %v hit %d at retired %d, want the jmp's first arrival",
			stop.Reason, stop.BP.Hits, d.M.Retired)
	}
}
