// Package vm implements the simulated CPU: register files, the execution
// loop, and machine exceptions delivered as OS-style signals.
//
// The machine is deliberately x86-64-like where it matters to LetGo:
// CALL/RET move return addresses through the stack, PUSH/POP move sp, and
// a faulting instruction does NOT commit any of its effects — the trap
// leaves PC at the faulting instruction with all registers as they were,
// which is the state a signal handler (and therefore LetGo) observes.
package vm

import (
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/mem"
)

// Signal is an OS-style signal raised by a machine exception.
type Signal uint8

// Signals. SIGSEGV, SIGBUS and SIGABRT are the crash-causing signals LetGo
// intercepts by default (the paper's Table 1); SIGFPE exists so that
// divide-by-zero remains a crash LetGo does not elide unless configured to.
const (
	SIGNONE Signal = iota
	SIGSEGV
	SIGBUS
	SIGABRT
	SIGFPE
)

func (s Signal) String() string {
	switch s {
	case SIGNONE:
		return "SIGNONE"
	case SIGSEGV:
		return "SIGSEGV"
	case SIGBUS:
		return "SIGBUS"
	case SIGABRT:
		return "SIGABRT"
	case SIGFPE:
		return "SIGFPE"
	}
	return fmt.Sprintf("SIG?%d", s)
}

// Trap reports a machine exception. It satisfies error and is returned by
// Step/Run; the debugger converts traps into signal stops.
type Trap struct {
	Signal Signal
	PC     uint64
	Instr  isa.Instruction // zero Instruction when the fetch itself faulted
	Fetch  bool            // true when PC itself was invalid
	Access *mem.AccessError
}

func (t *Trap) Error() string {
	if t.Fetch {
		return fmt.Sprintf("vm: %v: instruction fetch at 0x%x", t.Signal, t.PC)
	}
	if t.Access != nil {
		return fmt.Sprintf("vm: %v at pc=0x%x (%v): %v", t.Signal, t.PC, t.Instr, t.Access)
	}
	return fmt.Sprintf("vm: %v at pc=0x%x (%v)", t.Signal, t.PC, t.Instr)
}

// ErrBudget is returned by Run when the instruction budget is exhausted
// before the program halts; campaign drivers classify it as a hang.
var ErrBudget = errors.New("vm: instruction budget exhausted")

// Config carries machine construction options.
type Config struct {
	StackBytes uint64    // defaults to isa.DefaultStackBytes
	HeapBytes  uint64    // defaults to isa.DefaultHeapBytes
	Out        io.Writer // PRINTI/PRINTF sink; nil discards
}

// Machine is one simulated CPU plus its loaded program and memory.
type Machine struct {
	Prog *isa.Program
	Mem  *mem.Memory

	X [isa.NumIntRegs]uint64
	F [isa.NumFloatRegs]float64

	PC      uint64
	Halted  bool
	Retired uint64 // retired (committed) instruction count

	// OnTrap, when set, observes every machine exception as it is raised,
	// before the debugger decides its disposition. It must not mutate
	// machine state; the observability layer uses it to count traps by
	// signal. The no-trap fast path is unaffected.
	OnTrap func(*Trap)

	cfg Config
	out io.Writer
}

// New loads prog into a fresh machine: maps the global, heap and stack
// segments, copies initialized data, and points PC at the entry with
// sp = bp = stack top.
func New(prog *isa.Program, cfg Config) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	stack := cfg.StackBytes
	if stack == 0 {
		stack = isa.DefaultStackBytes
	}
	heap := cfg.HeapBytes
	if heap == 0 {
		heap = isa.DefaultHeapBytes
	}
	m := &Machine{Prog: prog, Mem: mem.New(), cfg: cfg, out: cfg.Out}
	if prog.Globals > 0 {
		if err := m.Mem.Map("globals", isa.GlobalBase, prog.Globals); err != nil {
			return nil, err
		}
	}
	if err := m.Mem.Map("heap", isa.HeapBase, heap); err != nil {
		return nil, err
	}
	if err := m.Mem.Map("stack", isa.StackTop-stack, stack); err != nil {
		return nil, err
	}
	for _, d := range prog.Data {
		if err := m.Mem.WriteBytes(d.Addr, d.Bytes); err != nil {
			return nil, fmt.Errorf("vm: loading data: %w", err)
		}
	}
	m.PC = prog.Entry
	m.X[isa.SP] = isa.StackTop
	m.X[isa.BP] = isa.StackTop
	return m, nil
}

func (m *Machine) print(format string, args ...any) {
	if m.out != nil {
		fmt.Fprintf(m.out, format, args...)
	}
}

// accessSignal maps a memory access error to its signal.
func accessSignal(err error) (Signal, *mem.AccessError) {
	var ae *mem.AccessError
	if errors.As(err, &ae) {
		if ae.Kind == mem.Misaligned {
			return SIGBUS, ae
		}
		return SIGSEGV, ae
	}
	return SIGSEGV, nil
}

func (m *Machine) trap(sig Signal, in isa.Instruction, ae *mem.AccessError) *Trap {
	t := &Trap{Signal: sig, PC: m.PC, Instr: in, Access: ae}
	if m.OnTrap != nil {
		m.OnTrap(t)
	}
	return t
}

// Step executes exactly one instruction. On success the architectural
// state advances and Step returns nil. On a machine exception the state is
// unchanged (PC still points at the faulting instruction) and Step returns
// a *Trap.
func (m *Machine) Step() error {
	if m.Halted {
		return errors.New("vm: step on halted machine")
	}
	in, ok := m.Prog.InstrAt(m.PC)
	if !ok {
		t := &Trap{Signal: SIGSEGV, PC: m.PC, Fetch: true}
		if m.OnTrap != nil {
			m.OnTrap(t)
		}
		return t
	}

	next := m.PC + isa.InstrBytes
	x := &m.X
	f := &m.F

	//opcheck:exhaustive — the default below is a can't-happen trap, not an
	// implementation; every opcode must have an explicit case.
	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		m.Halted = true
	case isa.ABORT:
		return m.trap(SIGABRT, in, nil)

	case isa.ADD:
		x[in.Rd] = x[in.Rs1] + x[in.Rs2]
	case isa.SUB:
		x[in.Rd] = x[in.Rs1] - x[in.Rs2]
	case isa.MUL:
		x[in.Rd] = x[in.Rs1] * x[in.Rs2]
	case isa.DIV:
		if x[in.Rs2] == 0 {
			return m.trap(SIGFPE, in, nil)
		}
		x[in.Rd] = uint64(int64(x[in.Rs1]) / int64(x[in.Rs2]))
	case isa.REM:
		if x[in.Rs2] == 0 {
			return m.trap(SIGFPE, in, nil)
		}
		x[in.Rd] = uint64(int64(x[in.Rs1]) % int64(x[in.Rs2]))
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
		x[in.Rd] = x[in.Rs1] + uint64(in.Imm)
	case isa.MULI:
		x[in.Rd] = x[in.Rs1] * uint64(in.Imm)
	case isa.ANDI:
		x[in.Rd] = x[in.Rs1] & uint64(in.Imm)

	case isa.MOV:
		x[in.Rd] = x[in.Rs1]
	case isa.NEG:
		x[in.Rd] = -x[in.Rs1]
	case isa.NOT:
		x[in.Rd] = ^x[in.Rs1]
	case isa.LI:
		x[in.Rd] = uint64(in.Imm)

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
		v, err := m.Mem.Read8(x[in.Rs1] + uint64(in.Imm))
		if err != nil {
			sig, ae := accessSignal(err)
			return m.trap(sig, in, ae)
		}
		x[in.Rd] = v
	case isa.ST:
		if err := m.Mem.Write8(x[in.Rs1]+uint64(in.Imm), x[in.Rs2]); err != nil {
			sig, ae := accessSignal(err)
			return m.trap(sig, in, ae)
		}
	case isa.FLD:
		v, err := m.Mem.ReadFloat(x[in.Rs1] + uint64(in.Imm))
		if err != nil {
			sig, ae := accessSignal(err)
			return m.trap(sig, in, ae)
		}
		f[in.Rd] = v
	case isa.FST:
		if err := m.Mem.WriteFloat(x[in.Rs1]+uint64(in.Imm), f[in.Rs2]); err != nil {
			sig, ae := accessSignal(err)
			return m.trap(sig, in, ae)
		}

	case isa.PUSH:
		sp := x[isa.SP] - 8
		if err := m.Mem.Write8(sp, x[in.Rs1]); err != nil {
			sig, ae := accessSignal(err)
			return m.trap(sig, in, ae)
		}
		x[isa.SP] = sp
	case isa.POP:
		v, err := m.Mem.Read8(x[isa.SP])
		if err != nil {
			sig, ae := accessSignal(err)
			return m.trap(sig, in, ae)
		}
		x[in.Rd] = v
		x[isa.SP] += 8
	case isa.CALL:
		sp := x[isa.SP] - 8
		if err := m.Mem.Write8(sp, next); err != nil {
			sig, ae := accessSignal(err)
			return m.trap(sig, in, ae)
		}
		x[isa.SP] = sp
		next = uint64(in.Imm)
	case isa.RET:
		ra, err := m.Mem.Read8(x[isa.SP])
		if err != nil {
			sig, ae := accessSignal(err)
			return m.trap(sig, in, ae)
		}
		x[isa.SP] += 8
		next = ra

	case isa.JMP:
		next = uint64(in.Imm)
	case isa.BEQ:
		if x[in.Rs1] == x[in.Rs2] {
			next = uint64(in.Imm)
		}
	case isa.BNE:
		if x[in.Rs1] != x[in.Rs2] {
			next = uint64(in.Imm)
		}
	case isa.BLT:
		if int64(x[in.Rs1]) < int64(x[in.Rs2]) {
			next = uint64(in.Imm)
		}
	case isa.BGE:
		if int64(x[in.Rs1]) >= int64(x[in.Rs2]) {
			next = uint64(in.Imm)
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
		f[in.Rd] = in.Float()

	case isa.I2F:
		f[in.Rd] = float64(int64(x[in.Rs1]))
	case isa.F2I:
		x[in.Rd] = f2i(f[in.Rs1])

	case isa.PRINTI:
		m.print("%d\n", int64(x[in.Rs1]))
	case isa.PRINTF:
		m.print("%.17g\n", f[in.Rs1])
	case isa.CYCLES:
		x[in.Rd] = m.Retired

	default:
		return m.trap(SIGABRT, in, nil)
	}

	m.PC = next
	m.Retired++
	return nil
}

// f2i converts float to int64 with deterministic saturation; NaN maps to 0.
func f2i(v float64) uint64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt64:
		return math.MaxInt64
	case v <= math.MinInt64:
		return 1 << 63 // bit pattern of math.MinInt64
	default:
		return uint64(int64(v))
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Run executes until HALT, a trap, or maxInstrs retired instructions.
// A nil return means the program halted normally. ErrBudget means the
// budget ran out (hang by the campaign's definition); a *Trap means a
// crash-causing signal was raised. Run is the bare-loop configuration of
// Drive: no hooks, predecoded dispatch.
func (m *Machine) Run(maxInstrs uint64) error {
	stop := Drive(m, maxInstrs, Hooks{})
	switch stop.Reason {
	case StopHalted:
		return nil
	case StopBudget:
		return ErrBudget
	case StopTrap:
		return stop.Trap
	}
	return stop.Err
}

// Fork returns an isolated copy-on-write clone of the machine: registers,
// PC and retirement counter are copied, and memory is shared until either
// side writes a page (mem.Memory.Fork). Forking is O(segments), which is
// what makes per-injection machines and waypoint snapshots cheap.
//
// A machine that is never stepped or written after forking (a waypoint)
// may be forked again concurrently from multiple goroutines.
func (m *Machine) Fork() *Machine {
	c := *m
	c.Mem = m.Mem.Fork()
	return &c
}

// SameState reports whether m and o are in bit-identical architectural
// state: PC, halt flag, retirement count (CYCLES reads it, so it is state),
// both register files compared as bit patterns, and memory (mem.Equal).
// Two machines of one program in the same state retire the same
// instructions from here on. It writes to neither machine, so o may be a
// frozen machine shared between goroutines.
func (m *Machine) SameState(o *Machine) bool {
	if m.PC != o.PC || m.Halted != o.Halted || m.Retired != o.Retired || m.X != o.X {
		return false
	}
	for i := range m.F {
		if math.Float64bits(m.F[i]) != math.Float64bits(o.F[i]) {
			return false
		}
	}
	return mem.Equal(m.Mem, o.Mem)
}

// Reset rewinds the machine to its freshly-loaded state — the state New
// returned: segments remapped, initialized data rewritten, registers
// zeroed, PC at the entry and sp = bp = stack top. The program image and
// output sink are kept.
func (m *Machine) Reset() error {
	n, err := New(m.Prog, m.cfg)
	if err != nil {
		return err
	}
	n.OnTrap = m.OnTrap
	*m = *n
	return nil
}

// CurrentInstr returns the instruction at PC, if PC is a valid code address.
func (m *Machine) CurrentInstr() (isa.Instruction, bool) {
	return m.Prog.InstrAt(m.PC)
}

// SetOut redirects host-call output.
func (m *Machine) SetOut(w io.Writer) { m.out = w }

// ReadGlobalFloat reads the float64 at byte offset off inside the named
// global symbol — the host-side accessor acceptance checks use.
func (m *Machine) ReadGlobalFloat(name string, off uint64) (float64, error) {
	s, ok := m.Prog.Symbol(name)
	if !ok || s.Kind != isa.SymGlobal {
		return 0, fmt.Errorf("vm: no global %q", name)
	}
	if off+8 > s.Size {
		return 0, fmt.Errorf("vm: offset %d outside global %q (size %d)", off, name, s.Size)
	}
	return m.Mem.ReadFloat(s.Addr + off)
}

// ReadGlobalInt reads the int64 at byte offset off inside the named global.
func (m *Machine) ReadGlobalInt(name string, off uint64) (int64, error) {
	s, ok := m.Prog.Symbol(name)
	if !ok || s.Kind != isa.SymGlobal {
		return 0, fmt.Errorf("vm: no global %q", name)
	}
	if off+8 > s.Size {
		return 0, fmt.Errorf("vm: offset %d outside global %q (size %d)", off, name, s.Size)
	}
	u, err := m.Mem.Read8(s.Addr + off)
	return int64(u), err
}

// ReadGlobalFloats reads n consecutive float64 values from the named global.
func (m *Machine) ReadGlobalFloats(name string, n int) ([]float64, error) {
	s, ok := m.Prog.Symbol(name)
	if !ok || s.Kind != isa.SymGlobal {
		return nil, fmt.Errorf("vm: no global %q", name)
	}
	if uint64(n*8) > s.Size {
		return nil, fmt.Errorf("vm: %d floats exceed global %q (size %d)", n, name, s.Size)
	}
	out := make([]float64, n)
	for i := range out {
		v, err := m.Mem.ReadFloat(s.Addr + uint64(i*8))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
