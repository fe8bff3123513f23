package vm

import (
	"bytes"
	"math"
	"testing"

	"github.com/letgo-hpc/letgo/internal/asm"
	"github.com/letgo-hpc/letgo/internal/isa"
)

// forkProg is a small loop that writes to a global every iteration, so
// machines diverge observably when stepped.
const forkProg = `
.entry main
.global g 8
main:
	li   x1, 0
	li   x2, 20
	li   x3, g
.loop:
	addi x1, x1, 1
	st   x1, [x3]
	bne  x1, x2, .loop
	halt
`

func forkMachine(t *testing.T) *Machine {
	t.Helper()
	prog, err := asm.Assemble(forkProg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestForkDivergesIndependently(t *testing.T) {
	m := forkMachine(t)
	for i := 0; i < 10; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	f := m.Fork()
	if f.PC != m.PC || f.Retired != m.Retired || f.X != m.X {
		t.Fatal("fork did not copy architectural state")
	}
	// Run the fork to completion; the parent must be unmoved.
	pc, retired := m.PC, m.Retired
	if err := f.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if !f.Halted {
		t.Fatal("fork did not halt")
	}
	if m.PC != pc || m.Retired != retired || m.Halted {
		t.Fatal("running the fork moved the parent")
	}
	// And the parent still runs to the same final state.
	if err := m.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if m.X != f.X || m.Retired != f.Retired {
		t.Fatalf("parent and fork final states differ: %v vs %v", m.X, f.X)
	}
	gm, _ := m.Mem.Read8(0x10000)
	gf, _ := f.Mem.Read8(0x10000)
	if gm != gf || gm != 20 {
		t.Fatalf("global after runs: parent %d fork %d, want 20", gm, gf)
	}
}

func TestForkMemoryIsolation(t *testing.T) {
	m := forkMachine(t)
	if err := m.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	f := m.Fork()
	if err := f.Mem.Write8(0x10000, 99); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Mem.Read8(0x10000); v != 20 {
		t.Fatalf("fork write leaked into parent: %d", v)
	}
}

// TestSameState checks every component of the compared state on its own:
// a fork is in its parent's state until any one of PC, halt flag,
// retirement count, either register file (as bit patterns) or memory moves.
func TestSameState(t *testing.T) {
	m := forkMachine(t)
	for i := 0; i < 10; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	m.F[3] = math.NaN()
	if f := m.Fork(); !m.SameState(f) || !f.SameState(m) {
		t.Fatal("a fork is not in its parent's state (NaN registers must compare by bits)")
	}
	for name, change := range map[string]func(f *Machine){
		"pc":      func(f *Machine) { f.PC += isa.InstrBytes },
		"halted":  func(f *Machine) { f.Halted = true },
		"retired": func(f *Machine) { f.Retired++ },
		"x":       func(f *Machine) { f.X[9] ^= 1 << 40 },
		"f sign":  func(f *Machine) { f.F[5] = math.Copysign(0, -1) }, // -0 == +0 numerically
		"memory":  func(f *Machine) { f.Mem.Write8(0x10000, 99) },     //nolint:errcheck // mapped global
	} {
		f := m.Fork()
		change(f)
		if m.SameState(f) || f.SameState(m) {
			t.Errorf("machines differing only in %s are in the same state", name)
		}
	}
	// Two machines that executed the same instructions separately share no
	// page arrays and are still in the same state.
	a, b := forkMachine(t), forkMachine(t)
	for i := 0; i < 25; i++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !a.SameState(b) {
		t.Fatal("two machines after the same 25 instructions differ")
	}
}

func TestResetRestoresLoadState(t *testing.T) {
	var out1, out2 bytes.Buffer
	prog, err := asm.Assemble(`
.entry main
.int g 7
main:
	li   x1, g
	ld   x2, [x1]
	addi x2, x2, 1
	st   x2, [x1]
	printi x2
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(prog, Config{Out: &out1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if m.Halted || m.Retired != 0 || m.PC != prog.Entry {
		t.Fatalf("Reset left state behind: halted=%v retired=%d pc=%#x", m.Halted, m.Retired, m.PC)
	}
	if m.X[isa.SP] != isa.StackTop || m.X[isa.BP] != isa.StackTop {
		t.Fatal("Reset did not restore sp/bp")
	}
	// Initialized data is back, so the run repeats identically.
	m.SetOut(&out2)
	if err := m.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if out2.String() != out1.String() {
		t.Fatalf("reset run printed %q, first run %q", out2.String(), out1.String())
	}
}

// A fork held aside is a checkpoint and a fork of it is the restore
// (internal/cluster's rollback): the tests below pin that pattern.

func TestCheckpointIsCOWBacked(t *testing.T) {
	m := forkMachine(t)
	if err := m.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	s := m.Fork()
	if s.Mem.CopiedPages() != 0 {
		t.Fatal("a checkpoint fork should not copy page bytes")
	}
	// Restore twice from the same checkpoint; both restores see the
	// checkpointed value even after the machine mutates in between.
	m = s.Fork()
	if err := m.Mem.Write8(0x10000, 1234); err != nil {
		t.Fatal(err)
	}
	m = s.Fork()
	if v, _ := m.Mem.Read8(0x10000); v != 20 {
		t.Fatalf("second restore reads %d, want 20", v)
	}
}

// checkpointProg counts to a large number so we can checkpoint mid-run.
func checkpointProg() *isa.Program {
	return prog(
		isa.Instruction{Op: isa.LI, Rd: isa.X1, Imm: 0},                             // 0
		isa.Instruction{Op: isa.LI, Rd: isa.X2, Imm: 1 << 16},                       // 1
		isa.Instruction{Op: isa.BGE, Rs1: isa.X1, Rs2: isa.X2, Imm: int64(addr(5))}, // 2
		isa.Instruction{Op: isa.ADDI, Rd: isa.X1, Rs1: isa.X1, Imm: 1},              // 3
		isa.Instruction{Op: isa.JMP, Imm: int64(addr(2))},                           // 4
		isa.Instruction{Op: isa.HALT},                                               // 5
	)
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	m := newMachine(t, checkpointProg())
	// Run part way, checkpoint, run to completion.
	for m.Retired < 1000 {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Mem.WriteFloat(isa.GlobalBase+64, 3.5); err != nil {
		t.Fatal(err)
	}
	snap := m.Fork()
	midCounter := m.X[isa.X1]

	run(t, m)
	if !m.Halted {
		t.Fatal("did not halt")
	}

	// Roll back and verify the full state returned.
	m = snap.Fork()
	if m.Halted || m.Retired != snap.Retired || m.X[isa.X1] != midCounter {
		t.Fatalf("restore lost state: %+v", m)
	}
	v, err := m.Mem.ReadFloat(isa.GlobalBase + 64)
	if err != nil || v != 3.5 {
		t.Fatalf("restored memory = %v, %v", v, err)
	}
	// The restored machine re-runs to the same completion.
	run(t, m)
	if m.X[isa.X1] != 1<<16 {
		t.Errorf("x1 = %d after re-run", m.X[isa.X1])
	}
}

func TestRestoreIsRepeatable(t *testing.T) {
	m := newMachine(t, checkpointProg())
	for m.Retired < 500 {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Fork()
	for attempt := 0; attempt < 3; attempt++ {
		m = snap.Fork()
		run(t, m)
		if m.X[isa.X1] != 1<<16 {
			t.Fatalf("attempt %d: x1 = %d", attempt, m.X[isa.X1])
		}
	}
}

func TestRestoreIsolatesMemory(t *testing.T) {
	snap := newMachine(t, prog(isa.Instruction{Op: isa.HALT})).Fork()
	// Mutating a restored machine must not leak into the checkpoint.
	if err := snap.Fork().Mem.Write8(isa.GlobalBase, 42); err != nil {
		t.Fatal(err)
	}
	v, err := snap.Fork().Mem.Read8(isa.GlobalBase)
	if err != nil || v != 0 {
		t.Fatalf("checkpoint contaminated: %d, %v", v, err)
	}
}
