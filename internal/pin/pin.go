// Package pin provides the instruction-level analysis LetGo needs, in the
// role PIN plays for the paper's prototype: disassembly, next-PC lookup,
// function-boundary recovery, stack-frame-size extraction from function
// prologues, and dynamic-instruction profiling for the fault injector.
//
// Like the paper's use of PIN, everything here is static except Profile,
// which is the injector's one-time profiling phase (Section 5.4).
package pin

import (
	"fmt"
	"sync"

	"github.com/letgo-hpc/letgo/internal/analysis"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// Analysis wraps a program with derived static information.
type Analysis struct {
	prog *isa.Program
	// static is the CFG/dataflow layer, built lazily on first use: the
	// profiling-only paths (OpcodeMix, ProfileRun) never need it.
	staticOnce sync.Once
	static     *analysis.Analysis
}

// Analyze builds an Analysis for prog.
func Analyze(prog *isa.Program) *Analysis {
	return &Analysis{prog: prog}
}

// Static returns the program's CFG, stack-depth and liveness analysis,
// building it on first call. The result is immutable and safe to share.
func (a *Analysis) Static() *analysis.Analysis {
	a.staticOnce.Do(func() { a.static = analysis.Analyze(a.prog) })
	return a.static
}

// Program returns the analyzed program.
func (a *Analysis) Program() *isa.Program { return a.prog }

// InstrAt disassembles the instruction at a code address.
func (a *Analysis) InstrAt(addr uint64) (isa.Instruction, bool) {
	return a.prog.InstrAt(addr)
}

// NextPC returns the address of the architecturally next instruction
// (layout successor, not branch successor) — the primitive LetGo uses to
// skip a faulting instruction.
func (a *Analysis) NextPC(addr uint64) (uint64, bool) {
	return a.prog.NextPC(addr)
}

// FuncAt returns the function symbol containing addr.
func (a *Analysis) FuncAt(addr uint64) (isa.Symbol, bool) {
	return a.prog.FuncAt(addr)
}

// CheckpointSet derives the minimal checkpoint state set and
// repair-safety facts for the given acceptance-output globals, running
// the region and dependency passes on first use.
func (a *Analysis) CheckpointSet(outputs []string) (*analysis.StateSet, error) {
	return a.Static().CheckpointSet(outputs)
}

// Profile is the result of the one-time profiling phase: the total dynamic
// instruction count and the execution count of every static instruction.
// The fault injector samples a uniformly random dynamic instruction from
// it (Section 5.4 of the paper).
type Profile struct {
	Total uint64
	// Counts[i] is the execution count of static instruction i
	// (address isa.CodeBase + i*isa.InstrBytes).
	Counts []uint64
}

// CountAt returns the execution count of the static instruction at addr.
func (p *Profile) CountAt(addr uint64) uint64 {
	i := int((addr - isa.CodeBase) / isa.InstrBytes)
	if addr < isa.CodeBase || i >= len(p.Counts) {
		return 0
	}
	return p.Counts[i]
}

// Site identifies one dynamic instruction: the Instance-th execution
// (1-based) of the static instruction at Addr.
type Site struct {
	Addr     uint64
	Instance uint64
}

// SiteOf maps a dynamic instruction index (0-based, < Total) to its
// (static address, instance) pair, walking static instructions in address
// order. The mapping is a deterministic bijection given the profile, so a
// uniform index yields a uniform dynamic instruction.
func (p *Profile) SiteOf(dyn uint64) (Site, error) {
	if dyn >= p.Total {
		return Site{}, fmt.Errorf("pin: dynamic index %d out of range (total %d)", dyn, p.Total)
	}
	var acc uint64
	for i, c := range p.Counts {
		if dyn < acc+c {
			return Site{
				Addr:     isa.CodeBase + uint64(i)*isa.InstrBytes,
				Instance: dyn - acc + 1,
			}, nil
		}
		acc += c
	}
	return Site{}, fmt.Errorf("pin: profile inconsistent: total %d, sum %d", p.Total, acc)
}

// OpcodeMix aggregates a profile's dynamic counts by opcode — the
// instruction-mix view used to reason about an app's fault surface (how
// many dynamic instructions carry destination registers, touch memory,
// or move the stack pointer).
func (a *Analysis) OpcodeMix(prof *Profile) map[isa.Op]uint64 {
	mix := make(map[isa.Op]uint64)
	for i, c := range prof.Counts {
		if c == 0 {
			continue
		}
		mix[a.prog.Instrs[i].Op] += c
	}
	return mix
}

// Profile executes prog to completion on a fresh machine, counting
// every retired instruction. It fails if the fault-free program does not
// halt within maxInstrs (the profiling phase must observe a clean run).
func (a *Analysis) ProfileRun(cfg vm.Config, maxInstrs uint64) (*Profile, error) {
	m, err := vm.New(a.prog, cfg)
	if err != nil {
		return nil, err
	}
	prof := &Profile{Counts: make([]uint64, len(a.prog.Instrs))}
	stop := vm.Drive(m, maxInstrs, vm.Hooks{
		Retired: func(_ *vm.Machine, idx int) bool {
			prof.Counts[idx]++
			prof.Total++
			return false
		},
	})
	switch stop.Reason {
	case vm.StopHalted:
		return prof, nil
	case vm.StopBudget:
		return nil, fmt.Errorf("pin: profiling exceeded budget of %d instructions", maxInstrs)
	case vm.StopTrap:
		return nil, fmt.Errorf("pin: fault-free run trapped: %w", stop.Trap)
	}
	return nil, fmt.Errorf("pin: fault-free run trapped: %w", stop.Err)
}
