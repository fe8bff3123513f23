// The dispatch core: one driver, Drive, executes a machine over the
// program's predecoded instruction array (isa.Program.Decoded) and is the
// single execution loop every layer of the stack configures with hooks —
// the debugger's breakpoints and signal dispositions, LetGo's trap
// supervision, pin's profiling, the engine's golden recording and
// retired-count positioning all compile down to Hooks over this driver.
//
// Step (vm.go) remains the architectural-semantics reference
// implementation: the fast path below must retire every instruction with
// effects indistinguishable from Step's, which the dispatch-equivalence
// differential tests enforce instruction by instruction.
package vm

import (
	"fmt"
	"math"
	"sync"

	"github.com/letgo-hpc/letgo/internal/isa"
)

// Hooks are the composable per-instruction observation points a caller
// installs on Drive. All hooks are optional; with Retired nil and Before
// nil or sparse (BeforeAt set), Drive runs the predecoded dispatch loop
// with no per-instruction callback work at all (the Trap hook costs
// nothing until a trap fires, a sparse Before nothing until the PC arrives
// at an instruction it watches).
type Hooks struct {
	// Before runs before the instruction at the current PC executes
	// (breakpoint checks, injection-site matching). Returning true stops
	// the driver with StopBefore, leaving the instruction unexecuted.
	Before func(m *Machine) bool
	// BeforeAt, when non-nil, makes Before sparse: it names the static
	// instruction indices Before watches, and Before is asked only when
	// the instruction about to execute is one of them (an empty list
	// watches nothing). Nil means every instruction. An index may repeat;
	// one outside the program stops the driver with StopError before
	// anything executes.
	BeforeAt []int
	// Retired runs after an instruction retires; idx is the static index
	// of the retired instruction (its address is isa.CodeBase +
	// idx*isa.InstrBytes). The machine state is fully committed when it
	// runs, so it may fork waypoints. Returning true stops the driver
	// with StopRetired.
	Retired func(m *Machine, idx int) bool
	// Trap runs when an instruction raises a machine exception, after the
	// machine's OnTrap observer. State is uncommitted: PC still points at
	// the faulting instruction. Returning true resumes execution (the
	// hook has repaired state, e.g. advanced the PC past the fault);
	// returning false stops the driver with StopTrap.
	Trap func(m *Machine, t *Trap) bool
}

// StopReason classifies why Drive returned.
type StopReason uint8

// Drive stop reasons.
const (
	StopHalted  StopReason = iota // program executed HALT (or was already halted)
	StopBudget                    // retired-instruction budget reached
	StopTrap                      // machine exception the Trap hook did not resume
	StopBefore                    // Before hook stopped the driver
	StopRetired                   // Retired hook stopped the driver
	StopError                     // non-trap machine error (see Stop.Err)
)

func (r StopReason) String() string {
	switch r {
	case StopHalted:
		return "halted"
	case StopBudget:
		return "budget"
	case StopTrap:
		return "trap"
	case StopBefore:
		return "before"
	case StopRetired:
		return "retired"
	case StopError:
		return "error"
	}
	return "stop?"
}

// Stop is Drive's result.
type Stop struct {
	Reason StopReason
	Trap   *Trap // the unresumed exception, for StopTrap
	Err    error // the machine error, for StopError
}

// Drive executes m until it halts, its absolute retired-instruction count
// reaches budget, a hook stops it, or an exception goes unresumed. Halt
// wins ties with the budget (a program that halts on exactly its last
// budgeted instruction has not hung), and the budget is checked before
// each instruction executes — both exactly as vm.Run always behaved.
//
// With no Retired hook and no dense Before the driver runs driveFast, the
// predecoded dispatch loop — a sparse Before is planted in a private copy
// of the instruction stream (plant) and costs nothing between arrivals.
// Otherwise it steps through the reference Step so every hook observes
// fully synchronized architectural state.
func Drive(m *Machine, budget uint64, h Hooks) Stop {
	if h.Before == nil {
		h.BeforeAt = nil
	}
	for _, idx := range h.BeforeAt {
		if idx < 0 || idx >= len(m.Prog.Instrs) {
			return Stop{Reason: StopError, Err: fmt.Errorf(
				"vm: Before watches instruction %d, program has %d", idx, len(m.Prog.Instrs))}
		}
	}
	switch {
	case h.Retired != nil || h.Before != nil && h.BeforeAt == nil:
		return driveHooked(m, budget, h)
	case h.Before == nil:
		return driveFast(m, budget, m.Prog.Decoded(), h)
	}
	code := plant(m.Prog.Decoded(), h.BeforeAt)
	stop := driveFast(m, budget, *code, h)
	streams.Put(code)
	return stop
}

// opPlanted is the pseudo-op a sparse Before is planted as, numbered next
// to the real opcodes so dispatch's jump table stays dense. It exists
// only in the private streams plant builds: never in a program image
// (Validate rejects it), in Prog.Decoded() or in anything Step executes.
const opPlanted = isa.Op(isa.NumOps)

// streams recycles the private instruction streams of sparse-Before runs,
// so a campaign that sets one breakpoint per injection does not allocate
// one program copy per injection.
var streams sync.Pool

// plant returns a private copy of the shared predecoded array with
// opPlanted at every watched index. The shared array is never written:
// other machines and forks of the program are executing from it.
func plant(shared []isa.Decoded, at []int) *[]isa.Decoded {
	code, _ := streams.Get().(*[]isa.Decoded)
	if code == nil {
		code = new([]isa.Decoded)
	}
	*code = append((*code)[:0], shared...)
	for _, idx := range at {
		(*code)[idx].Op = opPlanted
	}
	return code
}

// driveHooked is the instrumented path: per-instruction hooks observe the
// machine through the reference Step, which keeps PC/Retired committed at
// every observation point (a Retired hook may Fork the machine). A sparse
// Before is asked at exactly the arrivals driveFast would ask it.
func driveHooked(m *Machine, budget uint64, h Hooks) Stop {
	var watched []bool // by static index; nil when Before is dense
	if h.BeforeAt != nil {
		watched = make([]bool, len(m.Prog.Instrs))
		for _, idx := range h.BeforeAt {
			watched[idx] = true
		}
	}
	for {
		if m.Halted {
			return Stop{Reason: StopHalted}
		}
		if m.Retired >= budget {
			return Stop{Reason: StopBudget}
		}
		if h.Before != nil && (watched == nil || watches(watched, m.PC)) && h.Before(m) {
			return Stop{Reason: StopBefore}
		}
		pc := m.PC
		if err := m.Step(); err != nil {
			if t, ok := err.(*Trap); ok {
				if h.Trap != nil && h.Trap(m, t) {
					continue
				}
				return Stop{Reason: StopTrap, Trap: t}
			}
			return Stop{Reason: StopError, Err: err}
		}
		if h.Retired != nil {
			// pc was a valid code address (Step fetched through it), so the
			// index is exact.
			idx := int((pc - isa.CodeBase) / isa.InstrBytes)
			if h.Retired(m, idx) {
				return Stop{Reason: StopRetired}
			}
		}
	}
}

// watches reports whether pc is the address of a watched instruction.
func watches(watched []bool, pc uint64) bool {
	off := pc - isa.CodeBase
	idx := off / isa.InstrBytes
	return off%isa.InstrBytes == 0 && idx < uint64(len(watched)) && watched[idx]
}

// arrived is what the opPlanted arm leaves the dispatch loop with: not an
// exception, the marker that takes the loop's cold exit to ask Before.
var arrived = new(Trap)

// driveFast is the fast path: it runs dispatch, the bare loop, and deals
// with whatever the loop left for, re-entering it when a hook says to go
// on. The loop is handed no hooks: kept live across it (as func values or
// behind one pointer) they were reloaded from the stack at every
// retirement, 2% off every run-out on every workload.
//
// Trap semantics match Step exactly: a faulting instruction commits
// nothing, the flushed PC points at it, OnTrap observes the exception,
// and the optional trap hook either repairs-and-resumes or stops.
//
// A planted instruction leaves the loop by the same cold exit as a trap.
// h.Before is then asked as driveHooked would ask it — after the budget
// check, PC at the instruction, nothing committed — and on "continue" the
// displaced instruction retires once through the reference Step before
// the loop re-enters. The loop itself never re-dispatches the original
// op: keeping both streams live in it cost 6% on every run-out
// (docs/DISPATCH.md).
func driveFast(m *Machine, budget uint64, code []isa.Decoded, h Hooks) Stop {
	for {
		tr := dispatch(m, budget, code)
		switch tr {
		case nil:
			if m.Halted {
				return Stop{Reason: StopHalted}
			}
			return Stop{Reason: StopBudget}
		case arrived:
			if h.Before(m) {
				return Stop{Reason: StopBefore}
			}
			err := m.Step() // observes OnTrap itself
			if err == nil {
				continue
			}
			var ok bool
			if tr, ok = err.(*Trap); !ok {
				return Stop{Reason: StopError, Err: err}
			}
		default:
			if m.OnTrap != nil {
				m.OnTrap(tr)
			}
		}
		if h.Trap == nil || !h.Trap(m, tr) {
			return Stop{Reason: StopTrap, Trap: tr}
		}
	}
}

// dispatch is the bare loop: PC and the retirement counter live in locals,
// instructions come from a predecoded array (the program's shared one, or
// a planted private copy of it), and the only per-instruction overhead
// beyond the opcode's own work is the budget check and the fetch-range
// test. Machine state is flushed back only where the loop returns, which
// is sound because no hook can observe the machine mid-run: nil when the
// machine has halted or retired its budget, arrived at a planted
// instruction, otherwise the trap the instruction at the flushed PC
// raised, with nothing of it committed.
func dispatch(m *Machine, budget uint64, code []isa.Decoded) *Trap {
	if m.Halted {
		return nil
	}
	x := &m.X
	f := &m.F
	pc := m.PC
	retired := m.Retired
	for {
		if retired >= budget {
			m.PC, m.Retired = pc, retired
			return nil
		}
		off := pc - isa.CodeBase
		idx := off / isa.InstrBytes
		if off%isa.InstrBytes != 0 || idx >= uint64(len(code)) {
			m.PC, m.Retired = pc, retired
			return &Trap{Signal: SIGSEGV, PC: pc, Fetch: true}
		}
		in := &code[idx]
		next := pc + isa.InstrBytes
		var tr *Trap

		// The dispatch table. Exhaustive over isa.Op with no default
		// clause; invalid opcodes cannot reach here because New validates
		// the program image.
		//opcheck:exhaustive
		switch in.Op {
		case isa.NOP:
		case isa.HALT:
			m.PC, m.Retired = next, retired+1
			m.Halted = true
			return nil
		case isa.ABORT:
			tr = &Trap{Signal: SIGABRT}

		case isa.ADD:
			x[in.Rd] = x[in.Rs1] + x[in.Rs2]
		case isa.SUB:
			x[in.Rd] = x[in.Rs1] - x[in.Rs2]
		case isa.MUL:
			x[in.Rd] = x[in.Rs1] * x[in.Rs2]
		case isa.DIV:
			if x[in.Rs2] == 0 {
				tr = &Trap{Signal: SIGFPE}
			} else {
				x[in.Rd] = uint64(int64(x[in.Rs1]) / int64(x[in.Rs2]))
			}
		case isa.REM:
			if x[in.Rs2] == 0 {
				tr = &Trap{Signal: SIGFPE}
			} else {
				x[in.Rd] = uint64(int64(x[in.Rs1]) % int64(x[in.Rs2]))
			}
		case isa.AND:
			x[in.Rd] = x[in.Rs1] & x[in.Rs2]
		case isa.OR:
			x[in.Rd] = x[in.Rs1] | x[in.Rs2]
		case isa.XOR:
			x[in.Rd] = x[in.Rs1] ^ x[in.Rs2]
		case isa.SHL:
			x[in.Rd] = x[in.Rs1] << (x[in.Rs2] & 63)
		case isa.SHR:
			x[in.Rd] = x[in.Rs1] >> (x[in.Rs2] & 63)

		case isa.ADDI:
			x[in.Rd] = x[in.Rs1] + in.U
		case isa.MULI:
			x[in.Rd] = x[in.Rs1] * in.U
		case isa.ANDI:
			x[in.Rd] = x[in.Rs1] & in.U

		case isa.MOV:
			x[in.Rd] = x[in.Rs1]
		case isa.NEG:
			x[in.Rd] = -x[in.Rs1]
		case isa.NOT:
			x[in.Rd] = ^x[in.Rs1]
		case isa.LI:
			x[in.Rd] = in.U

		case isa.SEQ:
			x[in.Rd] = b2u(x[in.Rs1] == x[in.Rs2])
		case isa.SNE:
			x[in.Rd] = b2u(x[in.Rs1] != x[in.Rs2])
		case isa.SLT:
			x[in.Rd] = b2u(int64(x[in.Rs1]) < int64(x[in.Rs2]))
		case isa.SLE:
			x[in.Rd] = b2u(int64(x[in.Rs1]) <= int64(x[in.Rs2]))

		case isa.FEQ:
			x[in.Rd] = b2u(f[in.Rs1] == f[in.Rs2])
		case isa.FNE:
			x[in.Rd] = b2u(f[in.Rs1] != f[in.Rs2])
		case isa.FLT:
			x[in.Rd] = b2u(f[in.Rs1] < f[in.Rs2])
		case isa.FLE:
			x[in.Rd] = b2u(f[in.Rs1] <= f[in.Rs2])

		case isa.LD:
			v, err := m.Mem.Read8(x[in.Rs1] + in.U)
			if err != nil {
				sig, ae := accessSignal(err)
				tr = &Trap{Signal: sig, Access: ae}
			} else {
				x[in.Rd] = v
			}
		case isa.ST:
			if err := m.Mem.Write8(x[in.Rs1]+in.U, x[in.Rs2]); err != nil {
				sig, ae := accessSignal(err)
				tr = &Trap{Signal: sig, Access: ae}
			}
		case isa.FLD:
			v, err := m.Mem.ReadFloat(x[in.Rs1] + in.U)
			if err != nil {
				sig, ae := accessSignal(err)
				tr = &Trap{Signal: sig, Access: ae}
			} else {
				f[in.Rd] = v
			}
		case isa.FST:
			if err := m.Mem.WriteFloat(x[in.Rs1]+in.U, f[in.Rs2]); err != nil {
				sig, ae := accessSignal(err)
				tr = &Trap{Signal: sig, Access: ae}
			}

		case isa.PUSH:
			sp := x[isa.SP] - 8
			if err := m.Mem.Write8(sp, x[in.Rs1]); err != nil {
				sig, ae := accessSignal(err)
				tr = &Trap{Signal: sig, Access: ae}
			} else {
				x[isa.SP] = sp
			}
		case isa.POP:
			v, err := m.Mem.Read8(x[isa.SP])
			if err != nil {
				sig, ae := accessSignal(err)
				tr = &Trap{Signal: sig, Access: ae}
			} else {
				x[in.Rd] = v
				x[isa.SP] += 8
			}
		case isa.CALL:
			sp := x[isa.SP] - 8
			if err := m.Mem.Write8(sp, next); err != nil {
				sig, ae := accessSignal(err)
				tr = &Trap{Signal: sig, Access: ae}
			} else {
				x[isa.SP] = sp
				next = in.U
			}
		case isa.RET:
			ra, err := m.Mem.Read8(x[isa.SP])
			if err != nil {
				sig, ae := accessSignal(err)
				tr = &Trap{Signal: sig, Access: ae}
			} else {
				x[isa.SP] += 8
				next = ra
			}

		case isa.JMP:
			next = in.U
		case isa.BEQ:
			if x[in.Rs1] == x[in.Rs2] {
				next = in.U
			}
		case isa.BNE:
			if x[in.Rs1] != x[in.Rs2] {
				next = in.U
			}
		case isa.BLT:
			if int64(x[in.Rs1]) < int64(x[in.Rs2]) {
				next = in.U
			}
		case isa.BGE:
			if int64(x[in.Rs1]) >= int64(x[in.Rs2]) {
				next = in.U
			}

		case isa.FADD:
			f[in.Rd] = f[in.Rs1] + f[in.Rs2]
		case isa.FSUB:
			f[in.Rd] = f[in.Rs1] - f[in.Rs2]
		case isa.FMUL:
			f[in.Rd] = f[in.Rs1] * f[in.Rs2]
		case isa.FDIV:
			f[in.Rd] = f[in.Rs1] / f[in.Rs2] // IEEE semantics: Inf/NaN, no trap
		case isa.FMIN:
			f[in.Rd] = math.Min(f[in.Rs1], f[in.Rs2])
		case isa.FMAX:
			f[in.Rd] = math.Max(f[in.Rs1], f[in.Rs2])

		case isa.FMOV:
			f[in.Rd] = f[in.Rs1]
		case isa.FNEG:
			f[in.Rd] = -f[in.Rs1]
		case isa.FABS:
			f[in.Rd] = math.Abs(f[in.Rs1])
		case isa.FSQRT:
			f[in.Rd] = math.Sqrt(f[in.Rs1])

		case isa.FLI:
			f[in.Rd] = in.F

		case isa.I2F:
			f[in.Rd] = float64(int64(x[in.Rs1]))
		case isa.F2I:
			x[in.Rd] = f2i(f[in.Rs1])

		case isa.PRINTI:
			m.print("%d\n", int64(x[in.Rs1]))
		case isa.PRINTF:
			m.print("%.17g\n", f[in.Rs1])
		case isa.CYCLES:
			x[in.Rd] = retired
		case opPlanted:
			tr = arrived
		}

		if tr != nil {
			m.PC, m.Retired = pc, retired
			if tr != arrived {
				tr.PC = pc
				tr.Instr = m.Prog.Instrs[idx]
			}
			return tr
		}
		pc = next
		retired++
	}
}
