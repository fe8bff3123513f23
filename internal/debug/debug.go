// Package debug is the gdb analog of the reproduction: it attaches to a
// vm.Machine and provides exactly the control surface LetGo's prototype takes
// from gdb — a per-signal disposition table (the paper's Table 1),
// breakpoints with ignore counts, single-stepping, register and PC
// access, and continue.
package debug

import (
	"fmt"

	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// Disposition says what the debugger does when the debuggee raises a
// signal, mirroring gdb's "handle <sig> stop/nostop pass/nopass".
type Disposition struct {
	// Stop: the debugger suspends the program and returns control to the
	// client (LetGo) instead of letting the signal act.
	Stop bool
	// Pass: the signal is delivered to the program, which for the
	// crash-causing signals means termination.
	Pass bool
}

// Default dispositions terminate the program, which is what happens with
// no debugger attached: every crash-causing signal kills the debuggee.
var defaultDisposition = Disposition{Stop: false, Pass: true}

// StopReason classifies why Continue returned.
type StopReason uint8

// Stop reasons.
const (
	StopHalt       StopReason = iota // program executed HALT
	StopBreakpoint                   // a breakpoint with exhausted ignore count
	StopSignal                       // a signal with Stop disposition
	StopTerminated                   // a signal with Pass disposition killed the program
	StopBudget                       // the retired-instruction budget ran out
	StopError                        // a non-trap machine error (see Stop.Err)
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopBreakpoint:
		return "breakpoint"
	case StopSignal:
		return "signal"
	case StopTerminated:
		return "terminated"
	case StopBudget:
		return "budget"
	case StopError:
		return "error"
	}
	return fmt.Sprintf("stopreason?%d", r)
}

// Stop describes why the debuggee stopped.
type Stop struct {
	Reason StopReason
	Signal vm.Signal // for StopSignal / StopTerminated
	Trap   *vm.Trap  // machine exception details, if any
	BP     *Breakpoint
	Err    error // for StopError: the machine error that was not a trap
}

// Breakpoint suspends execution when the PC reaches Addr, after skipping
// the first Ignore hits (gdb's "ignore" counter; the fault injector uses
// it to reach the N-th dynamic instance of a static instruction).
type Breakpoint struct {
	Addr    uint64
	Ignore  uint64
	Hits    uint64
	Enabled bool
}

// Debugger drives one machine.
type Debugger struct {
	M *vm.Machine

	dispositions map[vm.Signal]Disposition
	breakpoints  map[uint64]*Breakpoint
	// resumeFrom suppresses re-triggering the breakpoint at the current PC
	// when continuing from it (gdb steps over the breakpoint on resume).
	resumeFrom uint64
	hasResume  bool
}

// New attaches a debugger to m.
func New(m *vm.Machine) *Debugger {
	return &Debugger{
		M:            m,
		dispositions: make(map[vm.Signal]Disposition),
		breakpoints:  make(map[uint64]*Breakpoint),
	}
}

// Handle sets the disposition for sig (gdb: "handle SIGSEGV stop nopass").
func (d *Debugger) Handle(sig vm.Signal, disp Disposition) {
	d.dispositions[sig] = disp
}

// DispositionFor reports the effective disposition for sig.
func (d *Debugger) DispositionFor(sig vm.Signal) Disposition {
	if disp, ok := d.dispositions[sig]; ok {
		return disp
	}
	return defaultDisposition
}

// SetBreakpoint installs (or replaces) a breakpoint at addr that fires on
// the (ignore+1)-th hit.
func (d *Debugger) SetBreakpoint(addr uint64, ignore uint64) (*Breakpoint, error) {
	if _, ok := d.M.Prog.InstrAt(addr); !ok {
		return nil, fmt.Errorf("debug: breakpoint at non-code address 0x%x", addr)
	}
	bp := &Breakpoint{Addr: addr, Ignore: ignore, Enabled: true}
	d.breakpoints[addr] = bp
	return bp, nil
}

// ClearBreakpoint removes the breakpoint at addr.
func (d *Debugger) ClearBreakpoint(addr uint64) {
	delete(d.breakpoints, addr)
}

// Breakpoints returns the installed breakpoints.
func (d *Debugger) Breakpoints() []*Breakpoint {
	out := make([]*Breakpoint, 0, len(d.breakpoints))
	for _, bp := range d.breakpoints {
		out = append(out, bp)
	}
	return out
}

// PC returns the debuggee program counter.
func (d *Debugger) PC() uint64 { return d.M.PC }

// SetPC rewrites the program counter — LetGo's core primitive
// ("advance the program counter to the next instruction").
func (d *Debugger) SetPC(pc uint64) { d.M.PC = pc }

// IntReg reads an integer register.
func (d *Debugger) IntReg(r isa.Reg) uint64 { return d.M.X[r] }

// SetIntReg writes an integer register (gdb: "set $reg = v").
func (d *Debugger) SetIntReg(r isa.Reg, v uint64) { d.M.X[r] = v }

// FloatReg reads a float register.
func (d *Debugger) FloatReg(r isa.Reg) float64 { return d.M.F[r] }

// SetFloatReg writes a float register.
func (d *Debugger) SetFloatReg(r isa.Reg, v float64) { d.M.F[r] = v }

// StepInstr executes exactly one instruction, honoring dispositions: a
// trapped signal either stops (Stop disposition) or terminates (Pass).
// A nil Stop means the instruction retired normally.
func (d *Debugger) StepInstr() *Stop {
	err := d.M.Step()
	if err == nil {
		if d.M.Halted {
			return &Stop{Reason: StopHalt}
		}
		return nil
	}
	if trap, ok := err.(*vm.Trap); ok {
		return d.signalStop(trap)
	}
	// A non-trap machine error (e.g. stepping an already-halted machine)
	// is not a normal halt; surface it instead of swallowing it.
	return &Stop{Reason: StopError, Err: err}
}

// signalStop maps a trap to a stop per the disposition table.
func (d *Debugger) signalStop(trap *vm.Trap) *Stop {
	if d.DispositionFor(trap.Signal).Stop {
		return &Stop{Reason: StopSignal, Signal: trap.Signal, Trap: trap}
	}
	return &Stop{Reason: StopTerminated, Signal: trap.Signal, Trap: trap}
}

// Continue resumes execution until a stop event or until the machine has
// retired maxInstrs instructions in total.
//
// The debuggee runs on vm.Drive's bare predecoded dispatch loop and the
// debugger only sees trap events and arrivals at a breakpoint — matching
// gdb, which adds no per-instruction work to a program it merely
// supervises (the paper's Section-6.2 "<1% overhead" measurement) and
// plants its breakpoints in the instruction stream.
func (d *Debugger) Continue(maxInstrs uint64) *Stop {
	return d.continueWith(maxInstrs, nil)
}

// continueWith is the one resume path behind Continue, Run and Supervise:
// it configures vm.Drive with the debugger's breakpoint logic as a sparse
// Before hook watching the breakpoint addresses (only when breakpoints
// exist — either way the debuggee runs on the bare loop) and the
// disposition table as the Trap hook. sup, when non-nil, is consulted on
// signals with Stop disposition; returning true resumes the debuggee in
// place (LetGo's repair loop), false stops as usual.
func (d *Debugger) continueWith(maxInstrs uint64, sup func(*vm.Trap) bool) *Stop {
	var hooks vm.Hooks
	var stopped *Stop

	hooks.Trap = func(_ *vm.Machine, t *vm.Trap) bool {
		s := d.signalStop(t)
		if s.Reason == StopSignal && sup != nil && sup(t) {
			return true
		}
		stopped = s
		return false
	}

	if len(d.breakpoints) == 0 {
		d.hasResume = false
	} else {
		hooks.BeforeAt = make([]int, 0, len(d.breakpoints))
		for addr := range d.breakpoints {
			hooks.BeforeAt = append(hooks.BeforeAt, int((addr-isa.CodeBase)/isa.InstrBytes))
		}
		// The hook is entered only on arrival at a breakpoint, so "the first
		// instruction executed" is decided here, not by the first call: the
		// debuggee still sitting on the breakpoint it stopped at steps over
		// it (as gdb does on resume), and that arrival is the first call.
		stepOver := d.hasResume && d.resumeFrom == d.M.PC
		hooks.Before = func(m *vm.Machine) bool {
			skip := stepOver && m.PC == d.resumeFrom
			stepOver = false
			bp := d.breakpoints[m.PC]
			if bp == nil || !bp.Enabled || skip {
				return false
			}
			bp.Hits++
			if bp.Hits <= bp.Ignore {
				return false
			}
			d.resumeFrom = m.PC
			d.hasResume = true
			stopped = &Stop{Reason: StopBreakpoint, BP: bp}
			return true
		}
	}

	stop := vm.Drive(d.M, maxInstrs, hooks)
	switch stop.Reason {
	case vm.StopHalted:
		d.hasResume = false
		return &Stop{Reason: StopHalt}
	case vm.StopBudget:
		return &Stop{Reason: StopBudget}
	case vm.StopTrap, vm.StopBefore:
		if stop.Reason == vm.StopTrap {
			d.hasResume = false
		}
		return stopped
	}
	d.hasResume = false
	return &Stop{Reason: StopError, Err: stop.Err}
}

// Run is Continue with the resume marker cleared: use it for the initial
// launch of the program under the debugger.
func (d *Debugger) Run(maxInstrs uint64) *Stop {
	d.hasResume = false
	return d.Continue(maxInstrs)
}

// ResetResume clears the step-over-on-resume marker, as if the debuggee
// had just been launched. Supervisors that own the whole run lifecycle
// (core.Runner) call it once up front.
func (d *Debugger) ResetResume() { d.hasResume = false }

// Supervise is Continue with a signal supervisor: on every signal whose
// disposition says stop, sup decides — true repairs-and-resumes the
// debuggee without leaving the dispatch loop, false returns the signal
// stop. It is LetGo's monitor loop expressed as a hook configuration.
func (d *Debugger) Supervise(maxInstrs uint64, sup func(*vm.Trap) bool) *Stop {
	return d.continueWith(maxInstrs, sup)
}

// RunToDynamic executes until the machine's absolute retired-instruction
// count reaches target, ignoring breakpoints. A nil return means the
// machine is positioned exactly at target retirements with the next
// instruction unexecuted; any earlier stop (halt, signal per the
// disposition table) is returned as-is.
//
// This is the fork-replay engine's positioning primitive: replaying a
// fault-free prefix from a waypoint does not need breakpoint-instance
// counting, only "run until the N-th dynamic instruction" — which is
// exactly vm.Drive's budget, so the replay runs the bare dispatch loop.
func (d *Debugger) RunToDynamic(target uint64) *Stop {
	if d.M.Retired >= target {
		return nil
	}
	var stopped *Stop
	stop := vm.Drive(d.M, target, vm.Hooks{
		Trap: func(_ *vm.Machine, t *vm.Trap) bool {
			stopped = d.signalStop(t)
			return false
		},
	})
	switch stop.Reason {
	case vm.StopBudget:
		return nil // positioned exactly at target retirements
	case vm.StopHalted:
		return &Stop{Reason: StopHalt}
	case vm.StopTrap:
		return stopped
	}
	return &Stop{Reason: StopError, Err: stop.Err}
}
