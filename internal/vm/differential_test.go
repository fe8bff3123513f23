package vm_test

// Differential test of the two execution paths: the reference Step
// interpreter (architectural semantics, one giant switch) against the
// predecoded Drive fast path. Any state a program can observe — integer
// and float registers, PC, retirement count, halt flag, every byte of
// data memory, program output, and the identity of the first trap — must
// be identical between the two, for randomized instruction soups and for
// every built-in benchmark app.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// outcome captures everything observable about one finished execution.
type outcome struct {
	kind    string // "halt" | "budget" | "trap" | "err"
	trapMsg string // trap.Error() when kind == "trap"
	err     string
	state   []byte // fingerprint: registers, PC, retired, memory
	output  []byte
}

// runStep executes m with the reference Step loop, using the same
// halt-before-budget tie-break as vm.Drive.
func runStep(m *vm.Machine, budget uint64) (string, string, string) {
	for {
		if m.Halted {
			return "halt", "", ""
		}
		if m.Retired >= budget {
			return "budget", "", ""
		}
		if err := m.Step(); err != nil {
			var t *vm.Trap
			if errors.As(err, &t) {
				return "trap", t.Error(), ""
			}
			return "err", "", err.Error()
		}
	}
}

// runDrive executes m with the predecoded driver (no hooks installed, so
// this is the driveFast path).
func runDrive(m *vm.Machine, budget uint64) (string, string, string) {
	stop := vm.Drive(m, budget, vm.Hooks{})
	switch stop.Reason {
	case vm.StopHalted:
		return "halt", "", ""
	case vm.StopBudget:
		return "budget", "", ""
	case vm.StopTrap:
		return "trap", stop.Trap.Error(), ""
	}
	return "err", "", stop.Err.Error()
}

// fingerprint appends m's full architectural state to w: both register
// files as bit patterns, PC, retired count, halt flag, and every mapped
// segment's bounds and bytes.
func fingerprint(t *testing.T, w *bytes.Buffer, m *vm.Machine) {
	t.Helper()
	var b8 [8]byte
	put := func(v uint64) { binary.LittleEndian.PutUint64(b8[:], v); w.Write(b8[:]) }
	for _, x := range m.X {
		put(x)
	}
	for _, f := range m.F {
		put(math.Float64bits(f))
	}
	put(m.PC)
	put(m.Retired)
	fmt.Fprintf(w, "%v", m.Halted)
	for _, seg := range m.Mem.Segments() {
		w.WriteString(seg.Name)
		put(seg.Base)
		put(seg.Size)
		data, err := m.Mem.ReadBytes(seg.Base, seg.Size)
		if err != nil {
			t.Fatalf("reading segment %q: %v", seg.Name, err)
		}
		w.Write(data)
	}
}

func capture(t *testing.T, prog *isa.Program, budget uint64,
	run func(*vm.Machine, uint64) (string, string, string)) outcome {
	t.Helper()
	var out bytes.Buffer
	m, err := vm.New(prog, vm.Config{Out: &out})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	kind, trapMsg, errMsg := run(m, budget)
	var state bytes.Buffer
	fingerprint(t, &state, m)
	return outcome{kind: kind, trapMsg: trapMsg, err: errMsg,
		state: state.Bytes(), output: out.Bytes()}
}

func diffOutcomes(t *testing.T, label string, ref, fast outcome) {
	t.Helper()
	if ref.kind != fast.kind {
		t.Errorf("%s: stop kind: Step=%q Drive=%q (trap %q vs %q)",
			label, ref.kind, fast.kind, ref.trapMsg, fast.trapMsg)
		return
	}
	if ref.trapMsg != fast.trapMsg {
		t.Errorf("%s: trap: Step=%q Drive=%q", label, ref.trapMsg, fast.trapMsg)
	}
	if ref.err != fast.err {
		t.Errorf("%s: error: Step=%q Drive=%q", label, ref.err, fast.err)
	}
	if !bytes.Equal(ref.output, fast.output) {
		t.Errorf("%s: program output differs (%d vs %d bytes)",
			label, len(ref.output), len(fast.output))
	}
	if !bytes.Equal(ref.state, fast.state) {
		t.Errorf("%s: architectural state differs (registers/PC/retired/memory)", label)
	}
}

// randomProgram builds a syntactically valid instruction soup: every
// opcode can appear, branch/call targets stay inside the code segment,
// and a register-seeding prologue plants pointers into globals, the heap
// and the stack so memory traffic hits both mapped and unmapped space.
// Traps, hangs (cut by budget) and clean halts are all expected outcomes.
func randomProgram(rng *rand.Rand) *isa.Program {
	n := 32 + rng.Intn(224)
	instrs := make([]isa.Instruction, 0, n+10)

	reg := func() isa.Reg { return isa.Reg(rng.Intn(isa.NumIntRegs)) }
	// Prologue: seed a few registers with usable addresses and values.
	seeds := []int64{
		int64(isa.GlobalBase), int64(isa.GlobalBase + 512),
		int64(isa.HeapBase), int64(isa.HeapBase + 1024),
		rng.Int63n(1 << 20), rng.Int63n(64) - 32,
	}
	for _, s := range seeds {
		instrs = append(instrs, isa.Instruction{Op: isa.LI, Rd: reg(), Imm: s})
	}

	codeAddr := func(max int) int64 {
		return int64(isa.CodeBase) + int64(rng.Intn(max))*int64(isa.InstrBytes)
	}
	pool := []isa.Op{
		isa.NOP, isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM, isa.AND,
		isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.ADDI, isa.MULI, isa.ANDI,
		isa.MOV, isa.NEG, isa.NOT, isa.LI, isa.SEQ, isa.SNE, isa.SLT,
		isa.SLE, isa.FEQ, isa.FNE, isa.FLT, isa.FLE, isa.LD, isa.ST,
		isa.FLD, isa.FST, isa.PUSH, isa.POP, isa.CALL, isa.RET, isa.JMP,
		isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.FADD, isa.FSUB, isa.FMUL,
		isa.FDIV, isa.FMIN, isa.FMAX, isa.FMOV, isa.FNEG, isa.FABS,
		isa.FSQRT, isa.FLI, isa.I2F, isa.F2I, isa.PRINTI, isa.PRINTF,
		isa.CYCLES, isa.HALT, isa.ABORT,
	}
	total := len(instrs) + n + 1 // final length including the trailing HALT
	for len(instrs) < total-1 {
		op := pool[rng.Intn(len(pool))]
		switch op {
		case isa.HALT, isa.ABORT:
			// Keep terminators rare so programs run for a while.
			if rng.Intn(16) != 0 {
				continue
			}
		case isa.RET:
			if rng.Intn(4) != 0 {
				continue
			}
		default:
		}
		in := isa.Instruction{Op: op, Rd: reg(), Rs1: reg(), Rs2: reg()}
		switch op {
		case isa.ADDI, isa.MULI, isa.ANDI, isa.LI:
			in.Imm = rng.Int63n(1<<12) - (1 << 11)
		case isa.LD, isa.ST, isa.FLD, isa.FST:
			// Aligned small displacement; validity depends on the base
			// register's runtime value, so both fault and success occur.
			in.Imm = int64(rng.Intn(64)) * 8
		case isa.JMP, isa.CALL, isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
			in.Imm = codeAddr(total)
		case isa.FLI:
			in = in.WithFloat(rng.NormFloat64() * 100)
		default:
		}
		instrs = append(instrs, in)
	}
	instrs = append(instrs, isa.Instruction{Op: isa.HALT})

	return &isa.Program{
		Instrs:  instrs,
		Entry:   isa.CodeBase,
		Globals: 1024,
		Data:    []isa.DataSpan{{Addr: isa.GlobalBase, Bytes: bytes.Repeat([]byte{0x5a}, 64)}},
	}
}

// TestDifferentialRandomPrograms runs randomized instruction soups on
// both execution paths and requires byte-identical outcomes.
func TestDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1e760))
	const (
		programs = 300
		budget   = 20_000
	)
	stops := map[string]int{}
	for i := 0; i < programs; i++ {
		prog := randomProgram(rng)
		if err := prog.Validate(); err != nil {
			t.Fatalf("program %d invalid: %v", i, err)
		}
		ref := capture(t, prog, budget, runStep)
		fast := capture(t, prog, budget, runDrive)
		diffOutcomes(t, "program", ref, fast)
		if t.Failed() {
			t.Fatalf("program %d diverged (seed fixed; rerun reproduces)", i)
		}
		stops[ref.kind]++
	}
	// The generator must actually exercise all three interesting endings;
	// a generator drifting into all-traps (or all-halts) would silently
	// gut the test's coverage.
	for _, kind := range []string{"halt", "budget", "trap"} {
		if stops[kind] == 0 {
			t.Errorf("no random program ended with %q (distribution: %v)", kind, stops)
		}
	}
}

// TestDifferentialAllApps runs every built-in benchmark app to completion
// on both execution paths and requires byte-identical outcomes.
func TestDifferentialAllApps(t *testing.T) {
	const budget = 50_000_000
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := app.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			ref := capture(t, prog, budget, runStep)
			fast := capture(t, prog, budget, runDrive)
			if ref.kind != "halt" {
				t.Fatalf("app did not halt under reference Step: %s %s", ref.kind, ref.trapMsg)
			}
			diffOutcomes(t, app.Name, ref, fast)
		})
	}
}

// ---------------------------------------------------------------------
// The planted path: a sparse Before hook (Hooks.BeforeAt) runs on
// driveFast over a private instruction stream with a pseudo-op at each
// watched index. The same question can be put to Drive three ways, and
// all three must answer it identically, byte for byte:
//
//   - plantedFast: BeforeAt set, no Retired hook — the planted stream;
//   - filteredHooked: BeforeAt set plus a Retired hook, which forces the
//     reference-Step path, where Drive applies the index filter itself;
//   - denseHooked: no BeforeAt — the hook is asked before every
//     instruction and filters by PC on its own. This is how breakpoints
//     ran before they were planted, and is the reference.

type beforePath int

const (
	plantedFast beforePath = iota
	filteredHooked
	denseHooked
)

var beforePaths = []beforePath{denseHooked, plantedFast, filteredHooked}

func (p beforePath) String() string {
	return [...]string{"planted-fast", "filtered-hooked", "dense-hooked"}[p]
}

// sparseRun describes one comparison: a program, the watched indices, and
// what the hooks answer. ask is told the 1-based number of the arrival;
// the run is resumed after every stop it asks for (so the resumed Drive's
// first instruction is a planted one) until something else ends it.
type sparseRun struct {
	prog   *isa.Program
	cfg    vm.Config // Out is the transcript's
	budget uint64
	at     []int
	ask    func(arrival int) bool
	// The Trap hook repairs the first `repairs` faults the way LetGo does,
	// by advancing the PC past them, and declines the rest.
	noTrapHook bool
	repairs    int
}

// transcript is everything observable about one run: for every Drive call
// the stop (reason, trap, error) and the machine, then the arrival, OnTrap
// and Trap-hook counts. text holds those lines alone, for people and for
// the edge cases' expectations; full holds them with a serialized snapshot
// after each stop and the program's output at the end, and is what must be
// byte-identical between paths.
type transcript struct {
	text string
	full []byte
}

// run executes r on one path.
func (r sparseRun) run(t *testing.T, path beforePath) transcript {
	t.Helper()
	var out, log bytes.Buffer
	var text strings.Builder
	cfg := r.cfg
	cfg.Out = &out
	m, err := vm.New(r.prog, cfg)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	watched := map[uint64]bool{}
	for _, idx := range r.at {
		watched[isa.CodeBase+uint64(idx)*isa.InstrBytes] = true
	}
	arrivals, onTraps, trapHooks := 0, 0, 0
	m.OnTrap = func(*vm.Trap) { onTraps++ }
	h := vm.Hooks{BeforeAt: r.at}
	h.Before = func(m *vm.Machine) bool {
		if !watched[m.PC] {
			if path != denseHooked {
				t.Errorf("%v: Before asked at unwatched pc %#x", path, m.PC)
			}
			return false
		}
		arrivals++
		return r.ask(arrivals)
	}
	if !r.noTrapHook {
		h.Trap = func(m *vm.Machine, _ *vm.Trap) bool {
			trapHooks++
			if trapHooks > r.repairs {
				return false
			}
			m.PC += isa.InstrBytes
			return true
		}
	}
	switch path {
	case filteredHooked:
		h.Retired = func(*vm.Machine, int) bool { return false }
	case denseHooked:
		h.BeforeAt = nil
	}
	for calls := 0; ; calls++ {
		stop := vm.Drive(m, r.budget, h)
		fmt.Fprintf(&text, "stop %v trap %v err %v\n", stop.Reason, stop.Trap, stop.Err)
		log.WriteString(text.String())
		fingerprint(t, &log, m)
		if stop.Reason != vm.StopBefore || calls == 64 {
			break
		}
	}
	fmt.Fprintf(&text, "arrivals %d ontrap %d traphook %d\n", arrivals, onTraps, trapHooks)
	log.WriteString(text.String())
	log.Write(out.Bytes())
	return transcript{text: text.String(), full: log.Bytes()}
}

// agree requires the three paths to produce byte-identical transcripts and
// returns the reference one's text.
func (r sparseRun) agree(t *testing.T, label string) string {
	t.Helper()
	ref := r.run(t, denseHooked)
	for _, path := range beforePaths[1:] {
		if got := r.run(t, path); !bytes.Equal(ref.full, got.full) {
			t.Errorf("%s: %v differs from %v (watching %v):\n%s--- vs ---\n%s",
				label, path, denseHooked, r.at, got.text, ref.text)
		}
	}
	return ref.text
}

// profile counts how often each static instruction is reached, and names
// the one the run ended at (the instruction that trapped, or was next when
// the budget ran out; -1 when the PC left the code).
func profile(t *testing.T, prog *isa.Program, cfg vm.Config, budget uint64) (counts []int, last int) {
	t.Helper()
	m, err := vm.New(prog, cfg)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	counts = make([]int, len(prog.Instrs))
	vm.Drive(m, budget, vm.Hooks{Retired: func(_ *vm.Machine, idx int) bool {
		counts[idx]++
		return false
	}})
	if _, ok := prog.InstrAt(m.PC); !ok || m.Halted {
		return counts, -1
	}
	last = int((m.PC - isa.CodeBase) / isa.InstrBytes)
	counts[last]++
	return counts, last
}

// sampleSite picks a watched index and an arrival number: usually an
// instruction the program reaches and one of its arrivals; a quarter of
// the time the very instruction the run ends at (so a planted instruction
// that traps is common), or failing that any index at all (never reached,
// reached fewer times than asked).
func sampleSite(rng *rand.Rand, counts []int, last int) (idx, k int) {
	var reached []int
	for i, c := range counts {
		if c > 0 {
			reached = append(reached, i)
		}
	}
	switch {
	case rng.Intn(4) == 0 && last >= 0:
		idx = last
	case rng.Intn(4) == 0 || len(reached) == 0:
		return rng.Intn(len(counts)), 1 + rng.Intn(3)
	default:
		idx = reached[rng.Intn(len(reached))]
	}
	return idx, 1 + rng.Intn(counts[idx])
}

// stopAtKth stops at the k-th arrival and lets every other one pass — so
// the transcript holds the machine at the k-th arrival and at the end.
func stopAtKth(k int) func(int) bool { return func(arrival int) bool { return arrival == k } }

// TestPlantedDifferentialRandomPrograms: over the same 300 instruction
// soups, for sampled (idx, k), every path stops for the same reason at the
// k-th arrival at idx on a byte-identical machine, and resumed from there
// (stepping over the planted instruction it sits on) reaches a
// byte-identical end state.
func TestPlantedDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1e760))
	const (
		programs = 300
		samples  = 4
		budget   = 20_000
	)
	// Small segments keep the serialized snapshots (every byte of data
	// memory, at every stop of every path) to kilobytes; the soups' seeded
	// pointers still land both inside and outside mapped space.
	cfg := vm.Config{StackBytes: 8 << 10, HeapBytes: 8 << 10}
	stoppedAtSite := 0
	for i := 0; i < programs; i++ {
		prog := randomProgram(rng)
		counts, last := profile(t, prog, cfg, budget)
		for s := 0; s < samples; s++ {
			idx, k := sampleSite(rng, counts, last)
			// No Trap hook, one that declines, and one that repairs up to 1, 2
			// faults, in turn.
			r := sparseRun{prog: prog, cfg: cfg, budget: budget, at: []int{idx}, ask: stopAtKth(k),
				noTrapHook: s == 0, repairs: s - 1}
			ref := r.agree(t, fmt.Sprintf("program %d", i))
			if t.Failed() {
				t.Fatalf("program %d diverged at (idx %d, k %d) (seed fixed; rerun reproduces)", i, idx, k)
			}
			if strings.HasPrefix(ref, "stop before") {
				stoppedAtSite++
			}
		}
	}
	t.Logf("%d of %d samples stopped at their site", stoppedAtSite, programs*samples)
	if stoppedAtSite < programs {
		t.Errorf("only %d of %d samples stopped at their site: the sampler is not exercising arrivals",
			stoppedAtSite, programs*samples)
	}
}

// TestPlantedDifferentialAllApps is the same comparison on every built-in
// app, whose sites are reached up to hundreds of thousands of times.
func TestPlantedDifferentialAllApps(t *testing.T) {
	const budget = 50_000_000
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := app.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rng := rand.New(rand.NewSource(int64(len(prog.Instrs))))
			counts, last := profile(t, prog, vm.Config{}, budget)
			for s := 0; s < 4; s++ {
				idx, k := sampleSite(rng, counts, last)
				r := sparseRun{prog: prog, budget: budget, at: []int{idx}, ask: stopAtKth(k), noTrapHook: true}
				ref := r.agree(t, app.Name)
				if counts[idx] >= k && !strings.HasPrefix(ref, "stop before") {
					t.Errorf("(idx %d, k %d) of %d executions: never stopped at the site", idx, k, counts[idx])
				}
			}
		})
	}
}

// plantedEdgeSrc is a counted loop with one load that faults on its third
// iteration, then a halt:
//
//	idx 0-2  prologue        idx 3 bge   idx 4 addi   idx 5-7 pointer choice
//	idx 8    ld (faults)     idx 9 li    idx 10 jmp   idx 11 halt
const plantedEdgeSrc = `
	.double cell 7.0
	main:
	    li x1, 0
	    li x2, 5
	    li x4, cell
	.loop:
	    bge x1, x2, .done
	    addi x1, x1, 1
	    li x5, 3
	    bne x1, x5, .ok
	    li x4, 0x123450000000
	.ok:
	    ld x6, [x4]
	    li x4, cell
	    jmp .loop
	.done:
	    halt
`

const (
	edgeAddi = 4
	edgeLoad = 8
	edgeHalt = 11
)

// TestPlantedEdgeCases names the corners of the planted path; in each the
// three paths must agree, and the transcript must say what the case
// expects.
func TestPlantedEdgeCases(t *testing.T) {
	prog := driveMachine(t, plantedEdgeSrc).Prog
	if prog.Instrs[edgeAddi].Op != isa.ADDI || prog.Instrs[edgeLoad].Op != isa.LD || prog.Instrs[edgeHalt].Op != isa.HALT {
		t.Fatalf("plantedEdgeSrc layout changed: %v", prog.Instrs)
	}
	never := func(int) bool { return false }
	small := vm.Config{StackBytes: 8 << 10, HeapBytes: 8 << 10} // kilobyte snapshots
	const budget = 1 << 16

	for _, tc := range []struct {
		name string
		run  sparseRun
		want []string // substrings of the transcript's text
	}{
		{"planted HALT retires through Step and halts",
			sparseRun{prog: prog, cfg: small, budget: budget, at: []int{edgeHalt}, ask: never, repairs: 1},
			[]string{"stop halted", "arrivals 1 ontrap 1 traphook 1"}},
		{"stop at a planted HALT leaves it unexecuted, resume halts",
			sparseRun{prog: prog, cfg: small, budget: budget, at: []int{edgeHalt}, ask: stopAtKth(1), repairs: 1},
			[]string{"stop before", "stop halted", "arrivals 2 "}},
		{"planted instruction traps, no Trap hook",
			sparseRun{prog: prog, cfg: small, budget: budget, at: []int{edgeLoad}, ask: never, noTrapHook: true},
			[]string{"stop trap trap vm: SIGSEGV at pc=0x1020", "arrivals 3 ontrap 1 traphook 0"}},
		{"planted instruction traps, Trap hook stops",
			sparseRun{prog: prog, cfg: small, budget: budget, at: []int{edgeLoad}, ask: never, repairs: 0},
			[]string{"stop trap trap vm: SIGSEGV at pc=0x1020", "arrivals 3 ontrap 1 traphook 1"}},
		{"planted instruction traps, Trap hook repairs at the very site and resumes",
			sparseRun{prog: prog, cfg: small, budget: budget, at: []int{edgeLoad}, ask: never, repairs: 1},
			[]string{"stop halted", "arrivals 5 ontrap 1 traphook 1"}},
		{"stopped at the faulting site, resumed into the fault and the repair",
			sparseRun{prog: prog, cfg: small, budget: budget, at: []int{edgeLoad}, ask: stopAtKth(3), repairs: 1},
			[]string{"stop before", "stop halted", "arrivals 6 ontrap 1 traphook 1"}},
		{"budget expires exactly at a planted PC: budget wins, Before is not asked",
			// 3 prologue + bge retire before the first addi: 4 retired on arrival.
			sparseRun{prog: prog, cfg: small, budget: 4, at: []int{edgeAddi}, ask: stopAtKth(1), noTrapHook: true},
			[]string{"stop budget", "arrivals 0 "}},
		{"one more instruction of budget: the arrival is asked",
			sparseRun{prog: prog, cfg: small, budget: 5, at: []int{edgeAddi}, ask: never, noTrapHook: true},
			[]string{"stop budget", "arrivals 1 "}},
		{"the same index listed twice is one arrival per visit",
			sparseRun{prog: prog, cfg: small, budget: budget, at: []int{edgeAddi, edgeAddi}, ask: never, repairs: 1},
			[]string{"stop halted", "arrivals 5 "}},
		{"every instruction watched is the dense hook",
			sparseRun{prog: prog, cfg: small, budget: budget, at: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, ask: stopAtKth(9), repairs: 1},
			[]string{"stop before", "stop halted"}},
		{"an empty list watches nothing",
			sparseRun{prog: prog, cfg: small, budget: budget, at: []int{}, ask: stopAtKth(1), repairs: 1},
			[]string{"stop halted", "arrivals 0 "}},
	} {
		text := tc.run.agree(t, tc.name)
		for _, w := range tc.want {
			if !strings.Contains(text, w) {
				t.Errorf("%s: transcript lacks %q:\n%s", tc.name, w, text)
			}
		}
	}
}

// TestPlantedIndexOutOfRangeRefused: a watched index outside the program
// is a StopError on either path, before anything executes.
func TestPlantedIndexOutOfRangeRefused(t *testing.T) {
	for _, bad := range []int{-1, 12, 1 << 20} {
		for _, retired := range []func(*vm.Machine, int) bool{nil, func(*vm.Machine, int) bool { return false }} {
			m := driveMachine(t, plantedEdgeSrc)
			stop := vm.Drive(m, 1<<16, vm.Hooks{
				Before:   func(*vm.Machine) bool { t.Error("Before asked"); return true },
				BeforeAt: []int{edgeAddi, bad},
				Retired:  retired,
			})
			if stop.Reason != vm.StopError || stop.Err == nil || !strings.Contains(stop.Err.Error(), fmt.Sprint(bad)) {
				t.Errorf("index %d: stop = %+v, want StopError naming it", bad, stop)
			}
			if m.Retired != 0 {
				t.Errorf("index %d: %d instructions retired before the refusal", bad, m.Retired)
			}
		}
	}
}

// TestPlantedStreamsArePrivate drives two forks of one machine at once,
// each watching its own instruction, while a third runs bare over the
// shared predecoded array. Under -race this proves planting never writes
// Prog.Decoded(); without it, the array is compared with a copy.
func TestPlantedStreamsArePrivate(t *testing.T) {
	root := driveMachine(t, plantedEdgeSrc)
	shared := append([]isa.Decoded(nil), root.Prog.Decoded()...)
	skipFault := func(m *vm.Machine, _ *vm.Trap) bool { m.PC += isa.InstrBytes; return true }

	var wg sync.WaitGroup
	arrivals := make([]int, 3)
	for g, at := range [][]int{{edgeAddi}, {edgeLoad, edgeHalt}, nil} {
		g, at, m := g, at, root.Fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				f := m.Fork()
				h := vm.Hooks{Trap: skipFault}
				if at != nil {
					h.BeforeAt = at
					h.Before = func(*vm.Machine) bool { arrivals[g]++; return false }
				}
				if stop := vm.Drive(f, 1<<16, h); stop.Reason != vm.StopHalted || f.X[isa.X1] != 5 {
					t.Errorf("fork %d round %d: stop %+v x1=%d", g, round, stop, f.X[isa.X1])
					return
				}
			}
		}()
	}
	wg.Wait()
	if arrivals[0] != 200*5 || arrivals[1] != 200*6 || arrivals[2] != 0 {
		t.Errorf("arrivals = %v, want [1000 1200 0]", arrivals)
	}
	for i, d := range root.Prog.Decoded() {
		if d != shared[i] {
			t.Fatalf("Prog.Decoded()[%d] was written: %+v, was %+v", i, d, shared[i])
		}
	}
}
