package vm_test

import (
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/asm"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/vm"
)

func driveMachine(t *testing.T, src string) *vm.Machine {
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

const driveLoopSrc = `
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

func TestDriveNoHooksHalts(t *testing.T) {
	m := driveMachine(t, driveLoopSrc)
	stop := vm.Drive(m, 1<<16, vm.Hooks{})
	if stop.Reason != vm.StopHalted {
		t.Fatalf("stop = %+v, want StopHalted", stop)
	}
	if m.X[isa.X1] != 5 {
		t.Errorf("x1 = %d, want 5", m.X[isa.X1])
	}
}

func TestDriveBeforeHookStops(t *testing.T) {
	m := driveMachine(t, driveLoopSrc)
	calls := 0
	stop := vm.Drive(m, 1<<16, vm.Hooks{Before: func(m *vm.Machine) bool {
		calls++
		return calls == 3
	}})
	if stop.Reason != vm.StopBefore {
		t.Fatalf("stop = %+v, want StopBefore", stop)
	}
	if m.Retired != 2 {
		t.Errorf("retired = %d, want 2 (stopped before the 3rd instruction)", m.Retired)
	}
}

func TestDriveRetiredHookStops(t *testing.T) {
	m := driveMachine(t, driveLoopSrc)
	stop := vm.Drive(m, 1<<16, vm.Hooks{Retired: func(m *vm.Machine, idx int) bool {
		return m.Retired == 4
	}})
	if stop.Reason != vm.StopRetired {
		t.Fatalf("stop = %+v, want StopRetired", stop)
	}
	if m.Retired != 4 {
		t.Errorf("retired = %d, want 4", m.Retired)
	}
}

// TestDriveStopErrorSurfaced is the regression test for the bug where a
// non-trap, non-budget step error was silently reported as a normal halt:
// a hook that flips the machine to halted mid-drive makes the next Step
// fail with a plain error, and Drive must surface it as StopError with
// the error attached, not mislabel it StopHalted.
func TestDriveStopErrorSurfaced(t *testing.T) {
	m := driveMachine(t, driveLoopSrc)
	stop := vm.Drive(m, 1<<16, vm.Hooks{Before: func(m *vm.Machine) bool {
		m.Halted = true // sabotage between the halt check and the step
		return false
	}})
	if stop.Reason != vm.StopError {
		t.Fatalf("stop = %+v, want StopError", stop)
	}
	if stop.Err == nil {
		t.Fatal("StopError with nil Err")
	}
	if stop.Trap != nil {
		t.Errorf("StopError carries a trap: %v", stop.Trap)
	}
}

// TestDriveTrapHookResume checks the fast path's trap-resume protocol:
// the hook repairs the machine (skips the faulting instruction) and
// returns true, and the driver continues to the real halt.
func TestDriveTrapHookResume(t *testing.T) {
	m := driveMachine(t, `
	main:
	    li x1, 64
	    ld x2, [x0]
	    li x3, 7
	    halt
	`)
	traps := 0
	stop := vm.Drive(m, 1<<16, vm.Hooks{Trap: func(m *vm.Machine, tr *vm.Trap) bool {
		traps++
		next, ok := m.Prog.NextPC(tr.PC)
		if !ok {
			return false
		}
		m.PC = next
		return true
	}})
	if stop.Reason != vm.StopHalted {
		t.Fatalf("stop = %+v, want StopHalted after repair", stop)
	}
	if traps != 1 {
		t.Errorf("trap hook ran %d times, want 1", traps)
	}
	if m.X[isa.X3] != 7 {
		t.Errorf("x3 = %d, want 7 (execution after the repaired trap)", m.X[isa.X3])
	}
}

// TestDriveHaltBeatsBudget pins the tie-break: a program that halts
// exactly at the budget boundary reports StopHalted, not StopBudget
// (matching the historical vm.Run contract).
func TestDriveHaltBeatsBudget(t *testing.T) {
	m := driveMachine(t, "main:\n halt\n")
	stop := vm.Drive(m, 1, vm.Hooks{})
	if stop.Reason != vm.StopHalted {
		t.Fatalf("stop = %+v, want StopHalted", stop)
	}
	if m.Retired != 1 {
		t.Errorf("retired = %d, want 1", m.Retired)
	}
}

// BenchmarkDriveToSite measures reaching one injection site on a fresh
// machine — the rerun engine's prefix — three ways: a sparse Before
// counting arrivals at the site (planted in driveFast's stream; how the
// debugger's breakpoints run), a dense Before asking the same question at
// every instruction (how they ran before), and the bare loop told the
// answer as a budget (the floor). The site is CLAMR's median dynamic
// instruction, so each iteration runs half the program.
func BenchmarkDriveToSite(b *testing.B) {
	app, ok := apps.ByName("CLAMR")
	if !ok {
		b.Fatal("no CLAMR")
	}
	prog, err := app.Compile()
	if err != nil {
		b.Fatal(err)
	}
	fresh := func() *vm.Machine {
		m, err := vm.New(prog, vm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	m := fresh()
	vm.Drive(m, 1<<40, vm.Hooks{})
	when := m.Retired / 2
	m = fresh()
	vm.Drive(m, when, vm.Hooks{})
	addr := m.PC
	idx := int((addr - isa.CodeBase) / isa.InstrBytes)
	// The site's instance: arrivals at idx up to and including the one at
	// `when` retired.
	instance := 0
	vm.Drive(fresh(), 1<<40, vm.Hooks{BeforeAt: []int{idx}, Before: func(m *vm.Machine) bool {
		instance++
		return m.Retired == when
	}})

	counting := func() func(*vm.Machine) bool {
		hits := 0
		return func(m *vm.Machine) bool {
			if m.PC != addr {
				return false
			}
			hits++
			return hits == instance
		}
	}
	for _, bc := range []struct {
		name  string
		hooks func() (uint64, vm.Hooks)
	}{
		{"sparse", func() (uint64, vm.Hooks) { return 1 << 40, vm.Hooks{Before: counting(), BeforeAt: []int{idx}} }},
		{"dense", func() (uint64, vm.Hooks) { return 1 << 40, vm.Hooks{Before: counting()} }},
		{"budget", func() (uint64, vm.Hooks) { return when, vm.Hooks{} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := fresh()
				budget, h := bc.hooks()
				vm.Drive(m, budget, h)
				if m.Retired != when || m.PC != addr {
					b.Fatalf("stopped at pc=%#x retired=%d, want the site pc=%#x retired=%d", m.PC, m.Retired, addr, when)
				}
			}
			b.ReportMetric(float64(when)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}
