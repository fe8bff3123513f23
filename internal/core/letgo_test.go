package core

import (
	"bytes"
	"strings"
	"testing"

	"github.com/letgo-hpc/letgo/internal/asm"
	"github.com/letgo-hpc/letgo/internal/debug"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/vm"
)

func attach(t *testing.T, src string, opts Options) *Runner {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(p, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return Attach(m, pin.Analyze(p), opts)
}

const wildLoadSrc = `
	.double out 0.0
	main:
	    fli f1, 99.5
	    li x1, 0x123450000000    ; corrupted pointer
	    fld f1, [x1]             ; SIGSEGV here
	    li x2, out
	    fst f1, [x2]
	    halt
`

func TestElideWildLoadBasic(t *testing.T) {
	r := attach(t, wildLoadSrc, Options{Mode: ModeBasic})
	res := r.Run(1 << 16)
	if res.Outcome != RunCompleted {
		t.Fatalf("outcome = %v, want completed", res.Outcome)
	}
	if res.Repairs != 1 {
		t.Fatalf("repairs = %d, want 1", res.Repairs)
	}
	// LetGo-B advances the PC but does NOT touch the stale destination:
	// f1 keeps its previous value.
	v, err := r.Dbg.M.ReadGlobalFloat("out", 0)
	if err != nil || v != 99.5 {
		t.Errorf("out = %v, %v; want stale 99.5", v, err)
	}
	if len(res.Events) != 1 || res.Events[0].Actions&ActAdvancePC == 0 {
		t.Errorf("events = %+v", res.Events)
	}
	if res.Events[0].Actions&(ActFillIntDest|ActFillFloatDest) != 0 {
		t.Error("LetGo-B applied Heuristic I")
	}
}

func TestElideWildLoadEnhancedFillsZero(t *testing.T) {
	r := attach(t, wildLoadSrc, Options{Mode: ModeEnhanced})
	res := r.Run(1 << 16)
	if res.Outcome != RunCompleted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	v, err := r.Dbg.M.ReadGlobalFloat("out", 0)
	if err != nil || v != 0 {
		t.Errorf("out = %v, %v; want 0 (Heuristic I)", v, err)
	}
	if res.Events[0].Actions&ActFillFloatDest == 0 {
		t.Error("Heuristic I not recorded")
	}
	if res.Events[0].Signal != vm.SIGSEGV {
		t.Errorf("signal = %v", res.Events[0].Signal)
	}
}

func TestElideWildIntLoadFill(t *testing.T) {
	src := `
	.int out 0
	main:
	    li x3, -1
	    li x1, 0x77777000000
	    ld x3, [x1]          ; SIGSEGV
	    li x2, out
	    st x3, [x2]
	    halt
	`
	r := attach(t, src, Options{Mode: ModeEnhanced})
	if res := r.Run(1 << 16); res.Outcome != RunCompleted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	v, err := r.Dbg.M.ReadGlobalInt("out", 0)
	if err != nil || v != 0 {
		t.Errorf("out = %d, %v; want 0", v, err)
	}
}

func TestElideWildStoreLeavesMemory(t *testing.T) {
	src := `
	main:
	    li x1, 0x5555000000
	    li x2, 42
	    st x2, [x1]          ; SIGSEGV; store must simply not happen
	    halt
	`
	r := attach(t, src, Options{Mode: ModeEnhanced})
	res := r.Run(1 << 16)
	if res.Outcome != RunCompleted || res.Repairs != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Events[0].Actions&(ActFillIntDest|ActFillFloatDest|ActRepairSP|ActRepairBP) != 0 {
		t.Errorf("store elision took extra actions: %v", res.Events[0].Actions)
	}
}

// corruptSPSrc simulates a bit-flipped stack pointer inside a function
// with the standard prologue.
const corruptSPSrc = `
	main:
	    push bp
	    mov bp, sp
	    addi sp, sp, -32
	    li x1, 0x1234560000
	    mov sp, x1           ; the "fault": sp corrupted
	    push x2              ; SIGSEGV here, repeatedly if sp stays bad
	    pop x2
	    mov sp, bp
	    pop bp
	    halt
`

func TestHeuristicIIRepairsSP(t *testing.T) {
	r := attach(t, corruptSPSrc, Options{Mode: ModeEnhanced})
	res := r.Run(1 << 16)
	if res.Outcome != RunCompleted {
		t.Fatalf("outcome = %v (LetGo-E should repair sp)", res.Outcome)
	}
	if res.Events[0].Actions&ActRepairSP == 0 {
		t.Errorf("no sp repair recorded: %+v", res.Events[0])
	}
	// Repaired sp = bp - frame; after the function returns the machine
	// halts with a balanced stack.
	if r.Dbg.IntReg(isa.SP) != isa.StackTop {
		t.Errorf("final sp = %#x, want %#x", r.Dbg.IntReg(isa.SP), isa.StackTop)
	}
}

func TestBasicModeDoubleCrashesOnCorruptSP(t *testing.T) {
	r := attach(t, corruptSPSrc, Options{Mode: ModeBasic})
	res := r.Run(1 << 16)
	if res.Outcome != RunCrashed {
		t.Fatalf("outcome = %v, want crashed (no H2 in LetGo-B)", res.Outcome)
	}
	if res.Repairs != 1 {
		t.Errorf("repairs = %d, want 1 (gave up on second crash)", res.Repairs)
	}
}

func TestHeuristicIIRepairsBP(t *testing.T) {
	src := `
	main:
	    push bp
	    mov bp, sp
	    addi sp, sp, -48
	    li x1, 0x9876540000
	    mov bp, x1           ; corrupted bp
	    fld f1, [bp-16]      ; SIGSEGV via bp-relative access
	    fst f1, [bp-24]
	    mov sp, bp
	    pop bp
	    halt
	`
	r := attach(t, src, Options{Mode: ModeEnhanced})
	res := r.Run(1 << 16)
	if res.Outcome != RunCompleted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Events[0].Actions&ActRepairBP == 0 {
		t.Errorf("no bp repair recorded: %+v", res.Events[0])
	}
}

func TestSecondCrashGivesUp(t *testing.T) {
	src := `
	main:
	    li x1, 0x111110000000
	    ld x2, [x1]          ; crash 1: elided
	    ld x3, [x1]          ; crash 2: LetGo gives up
	    halt
	`
	r := attach(t, src, Options{Mode: ModeEnhanced})
	res := r.Run(1 << 16)
	if res.Outcome != RunCrashed || res.Signal != vm.SIGSEGV {
		t.Fatalf("res = %+v, want double crash", res)
	}
	if res.Repairs != 1 {
		t.Errorf("repairs = %d", res.Repairs)
	}
}

func TestMaxRepairsAblation(t *testing.T) {
	src := `
	main:
	    li x1, 0x111110000000
	    ld x2, [x1]
	    ld x3, [x1]
	    ld x4, [x1]
	    halt
	`
	r := attach(t, src, Options{Mode: ModeEnhanced, MaxRepairs: 3})
	res := r.Run(1 << 16)
	if res.Outcome != RunCompleted || res.Repairs != 3 {
		t.Fatalf("res = %+v, want 3 repairs and completion", res)
	}
}

func TestNonInterceptedSignalTerminates(t *testing.T) {
	src := `
	main:
	    li x1, 5
	    div x2, x1, x3       ; x3 = 0 -> SIGFPE, not in Table 1
	    halt
	`
	r := attach(t, src, Options{Mode: ModeEnhanced})
	res := r.Run(1 << 16)
	if res.Outcome != RunCrashed || res.Signal != vm.SIGFPE {
		t.Fatalf("res = %+v, want SIGFPE crash", res)
	}
	if res.Repairs != 0 {
		t.Error("LetGo repaired a non-intercepted signal")
	}
}

func TestCustomSignalSetInterceptsFPE(t *testing.T) {
	src := `
	main:
	    li x1, 5
	    div x2, x1, x3
	    halt
	`
	r := attach(t, src, Options{
		Mode:    ModeEnhanced,
		Signals: []vm.Signal{vm.SIGSEGV, vm.SIGBUS, vm.SIGABRT, vm.SIGFPE},
	})
	res := r.Run(1 << 16)
	if res.Outcome != RunCompleted || res.Repairs != 1 {
		t.Fatalf("res = %+v, want elided SIGFPE", res)
	}
}

func TestAbortInterception(t *testing.T) {
	src := `
	main:
	    abort
	    li x1, 7
	    halt
	`
	r := attach(t, src, Options{Mode: ModeEnhanced})
	res := r.Run(1 << 16)
	if res.Outcome != RunCompleted {
		t.Fatalf("res = %+v", res)
	}
	if r.Dbg.IntReg(isa.X1) != 7 {
		t.Error("execution did not continue past abort")
	}
	if res.Events[0].Signal != vm.SIGABRT {
		t.Errorf("signal = %v", res.Events[0].Signal)
	}
}

func TestFetchFaultGivesUp(t *testing.T) {
	src := `
	main:
	    jmp 0x99999000       ; corrupted control flow: nothing to repair
	    halt
	`
	r := attach(t, src, Options{Mode: ModeEnhanced})
	res := r.Run(1 << 16)
	if res.Outcome != RunCrashed || res.Signal != vm.SIGSEGV {
		t.Fatalf("res = %+v, want crash", res)
	}
	if res.Repairs != 0 {
		t.Error("LetGo claimed to repair a fetch fault")
	}
}

func TestHangDetection(t *testing.T) {
	r := attach(t, "main:\n jmp main\n", Options{Mode: ModeEnhanced})
	res := r.Run(2000)
	if res.Outcome != RunHang {
		t.Fatalf("res = %+v, want hang", res)
	}
}

func TestDisableHeuristics(t *testing.T) {
	// With H2 disabled, Enhanced behaves like Basic on sp corruption.
	r := attach(t, corruptSPSrc, Options{Mode: ModeEnhanced, DisableH2: true})
	res := r.Run(1 << 16)
	if res.Outcome != RunCrashed {
		t.Fatalf("outcome = %v, want crashed with H2 disabled", res.Outcome)
	}
	// With H1 disabled, the load destination stays stale.
	r = attach(t, wildLoadSrc, Options{Mode: ModeEnhanced, DisableH1: true})
	res = r.Run(1 << 16)
	if res.Outcome != RunCompleted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if v, _ := r.Dbg.M.ReadGlobalFloat("out", 0); v != 99.5 {
		t.Errorf("out = %v, want stale 99.5", v)
	}
}

func TestCustomFillValue(t *testing.T) {
	src := `
	.int out 0
	main:
	    li x1, 0x77777000000
	    ld x3, [x1]
	    li x2, out
	    st x3, [x2]
	    halt
	`
	r := attach(t, src, Options{Mode: ModeEnhanced, FillInt: 7777})
	if res := r.Run(1 << 16); res.Outcome != RunCompleted {
		t.Fatalf("res = %+v", res)
	}
	if v, _ := r.Dbg.M.ReadGlobalInt("out", 0); v != 7777 {
		t.Errorf("out = %d, want 7777", v)
	}
}

func TestEventDurationsRecorded(t *testing.T) {
	r := attach(t, wildLoadSrc, Options{Mode: ModeEnhanced})
	res := r.Run(1 << 16)
	if len(res.Events) != 1 {
		t.Fatalf("events = %d", len(res.Events))
	}
	if res.Events[0].Duration < 0 {
		t.Error("negative repair duration")
	}
	if res.Events[0].NewPC != res.Events[0].PC+isa.InstrBytes {
		t.Error("NewPC is not the next instruction")
	}
}

func TestModeString(t *testing.T) {
	if ModeBasic.String() != "LetGo-B" || ModeEnhanced.String() != "LetGo-E" {
		t.Error("mode names wrong")
	}
}

func TestRunnerSurvivesClientBreakpoints(t *testing.T) {
	p, err := asm.Assemble(wildLoadSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(p, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := Attach(m, pin.Analyze(p), Options{Mode: ModeEnhanced})
	// A client (the fault injector) parks a breakpoint on the first
	// instruction; the runner resumes through it transparently.
	if _, err := r.Dbg.SetBreakpoint(isa.CodeBase, 0); err != nil {
		t.Fatal(err)
	}
	res := r.Run(1 << 16)
	if res.Outcome != RunCompleted {
		t.Fatalf("res = %+v", res)
	}
}

func TestHeuristicIIBothImplausible(t *testing.T) {
	// Both sp and bp wild: the paper's fallback is to copy one over the
	// other anyway. The run still ends (either recovered or double
	// crash), but the modifier must record an attempted repair.
	src := `
	main:
	    push bp
	    mov bp, sp
	    addi sp, sp, -32
	    li x1, 0x123450000
	    li x2, 0x678900000
	    mov sp, x1
	    mov bp, x2
	    push x3              ; SIGSEGV with both pointers wild
	    pop x3
	    mov sp, bp
	    pop bp
	    halt
	`
	r := attach(t, src, Options{Mode: ModeEnhanced})
	res := r.Run(1 << 16)
	if res.Repairs == 0 {
		t.Fatal("no repair attempted")
	}
	if res.Events[0].Actions&(ActRepairSP|ActRepairBP) == 0 {
		t.Errorf("no pointer repair recorded: %+v", res.Events[0])
	}
}

func TestHeuristicIIRespectsFrameSlack(t *testing.T) {
	// bp-sp = frame + pushed temp (8 bytes): inside the default slack, so
	// a fault on an unrelated wild load must NOT trigger a pointer repair.
	src := `
	main:
	    push bp
	    mov bp, sp
	    addi sp, sp, -32
	    push x5              ; legitimate extra stack use: bp-sp = 40
	    li x1, 0x999990000
	    ld x2, [x1]          ; SIGSEGV via x1, pointers are fine
	    pop x5
	    mov sp, bp
	    pop bp
	    halt
	`
	r := attach(t, src, Options{Mode: ModeEnhanced})
	res := r.Run(1 << 16)
	if res.Outcome != RunCompleted {
		t.Fatalf("res = %+v", res)
	}
	if res.Events[0].Actions&(ActRepairSP|ActRepairBP) != 0 {
		t.Errorf("pointer repair on healthy sp/bp: %+v", res.Events[0])
	}

	// With a tiny slack and a genuinely violated bound, the repair fires.
	src2 := `
	main:
	    push bp
	    mov bp, sp
	    addi sp, sp, -32
	    li x1, 0x42420000000
	    mov sp, x1
	    push x5
	    pop x5
	    mov sp, bp
	    pop bp
	    halt
	`
	r2 := attach(t, src2, Options{Mode: ModeEnhanced, FrameSlack: 8})
	res2 := r2.Run(1 << 16)
	if res2.Outcome != RunCompleted || res2.Events[0].Actions&ActRepairSP == 0 {
		t.Fatalf("res2 = %+v, want sp repair", res2)
	}
}

func TestHeuristicIIWithoutPrologueUsesFallbackBound(t *testing.T) {
	// A function without the Listing-1 prologue: the prologue frame is
	// unknown and Heuristic II falls back to a generous bound; wild sp
	// still repaired.
	src := `
	main:
	    li x1, 0x77700000000
	    mov sp, x1
	    push x2              ; SIGSEGV; no prologue anywhere
	    halt
	`
	r := attach(t, src, Options{Mode: ModeEnhanced})
	res := r.Run(1 << 16)
	if res.Repairs != 1 {
		t.Fatalf("res = %+v", res)
	}
	// bp is still the pristine StackTop, so sp gets rebuilt near it.
	if sp := r.Dbg.IntReg(isa.SP); sp > isa.StackTop || sp < isa.StackTop-8192 {
		t.Errorf("sp = %#x not rebuilt near the stack top", sp)
	}
}

func TestRunnerObsInstrumentation(t *testing.T) {
	var events bytes.Buffer
	hub := &obs.Hub{Reg: obs.NewRegistry(), Em: obs.NewEmitter(&events)}
	r := attach(t, wildLoadSrc, Options{Mode: ModeEnhanced, Obs: hub})
	res := r.Run(1 << 16)
	if res.Outcome != RunCompleted || res.Repairs != 1 {
		t.Fatalf("outcome = %v repairs = %d", res.Outcome, res.Repairs)
	}
	reg := hub.Reg
	if got := reg.Counter("letgo_signals_intercepted_total", "signal", "SIGSEGV").Value(); got != 1 {
		t.Errorf("intercepted SIGSEGV = %d, want 1", got)
	}
	if got := reg.Counter("letgo_repairs_total").Value(); got != 1 {
		t.Errorf("repairs counter = %d, want 1", got)
	}
	if got := reg.Counter("letgo_heuristic_applications_total", "heuristic", "h1_float_fill").Value(); got != 1 {
		t.Errorf("h1_float_fill = %d, want 1", got)
	}
	// Attach pre-registered all four heuristic counters so dumps always
	// carry explicit zeros.
	for _, h := range []string{"h1_int_fill", "h2_sp_repair", "h2_bp_repair"} {
		if got := reg.Counter("letgo_heuristic_applications_total", "heuristic", h).Value(); got != 0 {
			t.Errorf("%s = %d, want 0", h, got)
		}
	}
	if got := reg.Counter("letgo_runs_total", "outcome", "completed").Value(); got != 1 {
		t.Errorf("runs_total{completed} = %d", got)
	}
	// The event stream carries the signal and the heuristic application.
	out := events.String()
	for _, want := range []string{`"type":"signal"`, `"type":"heuristic"`, `"heuristic":"h1_float_fill"`} {
		if !strings.Contains(out, want) {
			t.Errorf("event stream missing %s:\n%s", want, out)
		}
	}

	// The same program under identical options without a hub behaves
	// identically (instrumentation is passive).
	r2 := attach(t, wildLoadSrc, Options{Mode: ModeEnhanced})
	res2 := r2.Run(1 << 16)
	if res2.Outcome != res.Outcome || res2.Repairs != res.Repairs || res2.Retired != res.Retired {
		t.Errorf("instrumented run diverged: %+v vs %+v", res, res2)
	}
}

func TestRunnerObsGiveUp(t *testing.T) {
	// Two planted crashes with MaxRepairs 1: the second is declined and
	// recorded under reason repair_budget.
	src := `
	main:
	    li x1, 0x123450000000
	    fld f1, [x1]
	    fld f2, [x1]
	    halt
	`
	hub := &obs.Hub{Reg: obs.NewRegistry()}
	r := attach(t, src, Options{Mode: ModeEnhanced, MaxRepairs: 1, Obs: hub})
	res := r.Run(1 << 16)
	if res.Outcome != RunCrashed {
		t.Fatalf("outcome = %v, want crashed", res.Outcome)
	}
	if got := hub.Reg.Counter("letgo_repair_giveups_total", "reason", "repair_budget").Value(); got != 1 {
		t.Errorf("giveups{repair_budget} = %d, want 1", got)
	}
	if got := hub.Reg.Counter("letgo_signals_intercepted_total", "signal", "SIGSEGV").Value(); got != 2 {
		t.Errorf("intercepted = %d, want 2", got)
	}
}

// TestSuperviseBreakpointStepOverAcrossRepair pins step-over-on-resume
// through the runner's own resume path (debug.Supervise with intercept as
// the supervisor): a breakpoint in a loop body whose second iteration
// crashes and is repaired stops at hits 1, 2, 3, 4 — the repair falling
// between hits 2 and 3 — exactly where a dense per-instruction hook
// asking the same question stops.
func TestSuperviseBreakpointStepOverAcrossRepair(t *testing.T) {
	const src = `
	.double out 1.5
	main:
	    li x1, 0
	    li x2, 6
	    li x4, out
	.loop:
	    bge x1, x2, .done
	    addi x1, x1, 1           ; breakpoint
	    li x5, 2
	    bne x1, x5, .ok
	    li x4, 0x123450000000    ; iteration 2 loads through a wild pointer
	.ok:
	    fld f1, [x4]
	    li x4, out
	    jmp .loop
	.done:
	    halt
`
	const budget = 1 << 16
	addi := isa.CodeBase + 4*isa.InstrBytes

	r := attach(t, src, Options{Mode: ModeEnhanced})
	bp, err := r.Dbg.SetBreakpoint(addi, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The reference: the same runner logic under one dense Before hook.
	ref := attach(t, src, Options{Mode: ModeEnhanced})
	var refHits uint64
	resumed := false
	refContinue := func() vm.StopReason {
		first := true
		return vm.Drive(ref.Dbg.M, budget, vm.Hooks{
			Before: func(m *vm.Machine) bool {
				if m.PC == addi && !(first && resumed) {
					refHits++
					resumed = true
					return true
				}
				first = false
				return false
			},
			Trap: func(_ *vm.Machine, t *vm.Trap) bool { return ref.intercept(t) },
		}).Reason
	}

	r.Dbg.ResetResume()
	for n := uint64(1); n <= 4; n++ {
		stop := r.Dbg.Supervise(budget, r.intercept)
		if got := refContinue(); got != vm.StopBefore || stop.Reason != debug.StopBreakpoint {
			t.Fatalf("stop %d: supervise %v, reference %v", n, stop.Reason, got)
		}
		m, rm := r.Dbg.M, ref.Dbg.M
		if bp.Hits != n || refHits != n || m.PC != rm.PC || m.Retired != rm.Retired || !m.SameState(rm) {
			t.Fatalf("stop %d: hits %d at pc=%#x retired=%d, reference hits %d at pc=%#x retired=%d",
				n, bp.Hits, m.PC, m.Retired, refHits, rm.PC, rm.Retired)
		}
		wantRepairs := 0
		if n >= 3 {
			wantRepairs = 1
		}
		if len(r.Events()) != wantRepairs || len(ref.Events()) != wantRepairs {
			t.Fatalf("stop %d: %d repairs (reference %d), want %d", n, len(r.Events()), len(ref.Events()), wantRepairs)
		}
	}
}
