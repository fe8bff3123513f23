package analysis

import (
	"math"
	"strings"
	"testing"

	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// stateApp is a hand-written workload with a clean dependency split: the
// acceptance output `out` depends on `in` through a register chain, while
// `scratch` is written but never feeds the output.
const stateApp = `
	.entry _start
	.global in 8
	.global out 8
	.global scratch 8
	_start:
	    call main
	    halt
	main:
	    push bp
	    mov bp, sp
	    li x1, in
	    ld x2, [x1+0]
	    addi x2, x2, 1
	    li x3, out
	    st x2, [x3+0]
	    li x4, 99
	    li x5, scratch
	    st x4, [x5+0]
	    ld x6, [x5+0]
	    mov sp, bp
	    pop bp
	    ret
`

func checkpointSet(t *testing.T, a *Analysis, outputs ...string) *StateSet {
	t.Helper()
	ss, err := a.CheckpointSet(outputs)
	if err != nil {
		t.Fatalf("CheckpointSet(%v): %v", outputs, err)
	}
	return ss
}

func TestCheckpointSetStrictSubset(t *testing.T) {
	a := analyze(t, stateApp)
	ss := checkpointSet(t, a, "out")

	if ss.DerivedBytes == 0 || ss.DerivedBytes >= ss.FullBytes {
		t.Fatalf("derived %d of %d bytes: want a non-empty strict subset", ss.DerivedBytes, ss.FullBytes)
	}
	live := map[string]bool{}
	for _, r := range ss.LiveRegions() {
		live[r.Name] = true
	}
	if !live["out"] || !live["in"] {
		t.Errorf("out and in must be live, got %v", live)
	}
	if live["scratch"] {
		t.Errorf("scratch feeds nothing the acceptance check reads, got live set %v", live)
	}
	if live["<heap>"] || live["<stack>"] {
		t.Errorf("untouched heap/stack must be dropped, got %v", live)
	}

	d := ss.Describe()
	for _, want := range []string{"outputs: out", "live", "dropped:", "derived:", "repair-safe:"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestCheckpointSetRejectsBadOutputs(t *testing.T) {
	a := analyze(t, stateApp)
	if _, err := a.CheckpointSet(nil); err == nil {
		t.Error("empty output list accepted")
	}
	if _, err := a.CheckpointSet([]string{"main"}); err == nil {
		t.Error("function symbol accepted as output")
	}
	if _, err := a.CheckpointSet([]string{"nope"}); err == nil {
		t.Error("unknown symbol accepted as output")
	}
}

func TestRepairSafetySites(t *testing.T) {
	a := analyze(t, stateApp)
	ss := checkpointSet(t, a, "out")

	if ss.DestSites == 0 || ss.SafeSites == 0 {
		t.Fatalf("safe/dest sites = %d/%d: want some of each", ss.SafeSites, ss.DestSites)
	}
	if ss.SafeSites >= ss.DestSites {
		t.Fatalf("safe sites %d of %d: the in->out chain must stay unsafe", ss.SafeSites, ss.DestSites)
	}

	// The x6 load from scratch is read back into nothing: corrupting x6
	// cannot reach out. The x2 add feeds the store to out directly.
	safeAddr := addrOfLoadInto(t, a, 6)
	if safe, ok := ss.RepairSafeAt(safeAddr); !ok || !safe {
		t.Errorf("RepairSafeAt(ld x6) = %v, %v: want safe", safe, ok)
	}
	unsafeAddr := addrOfAddInto(t, a, 2)
	if safe, ok := ss.RepairSafeAt(unsafeAddr); !ok || safe {
		t.Errorf("RepairSafeAt(addi x2) = %v, %v: want unsafe", safe, ok)
	}
	// Non-destination and out-of-segment addresses report ok=false.
	if _, ok := ss.RepairSafeAt(0); ok {
		t.Error("RepairSafeAt(0) reported ok")
	}
}

// loopApp carries a value through a four-register shift chain: x6's 7
// reaches x3 on the third trip and is summed into out on the last seven,
// so out is 49. x4..x6 reach out only through the loop's back edge, which
// the can-reach fixpoint must follow.
const loopApp = `
	.entry main
	.global out 8
	main:
	    li x1, 0
	    li x2, 0
	    li x3, 0
	    li x4, 0
	    li x5, 0
	    li x6, 7
	    li x7, 10
	.loop:
	    add x1, x1, x3
	    mov x3, x4
	    mov x4, x5
	    mov x5, x6
	    addi x2, x2, 1
	    blt x2, x7, .loop
	    li x8, out
	    st x1, [x8+0]
	    halt
`

func TestRepairSafetyFollowsLoopBackEdge(t *testing.T) {
	a := analyze(t, loopApp)
	ss := checkpointSet(t, a, "out")
	main := sym(t, a, "main")
	for rd := isa.Reg(1); rd <= 7; rd++ {
		addr := main + uint64(rd-1)*isa.InstrBytes
		if safe, ok := ss.RepairSafeAt(addr); !ok || safe {
			t.Errorf("RepairSafeAt(li x%d) = %v, %v: want unsafe", rd, safe, ok)
		}
	}
}

// TestRepairSafeAtHoldsOnRealRuns checks the certificate against the
// machine: at every certified site, every dynamic instance and several
// bit positions, a flipped destination that still runs to HALT must leave
// out golden.
func TestRepairSafeAtHoldsOnRealRuns(t *testing.T) {
	runs := 0
	for _, fx := range []struct{ name, src string }{{"stateApp", stateApp}, {"loopApp", loopApp}} {
		a := analyze(t, fx.src)
		ss := checkpointSet(t, a, "out")
		golden, halted, _ := flipRun(t, a.Prog, 0, 0, 0)
		if !halted {
			t.Fatalf("%s: golden run did not halt", fx.name)
		}
		for i := range a.Prog.Instrs {
			site := a.addr(i)
			if safe, ok := ss.RepairSafeAt(site); !ok || !safe {
				continue
			}
			_, _, instances := flipRun(t, a.Prog, site, 0, 0)
			for k := 1; k <= instances; k++ {
				for _, bit := range []uint{0, 3, 31, 63} {
					runs++
					if out, halted, _ := flipRun(t, a.Prog, site, k, bit); halted && out != golden {
						t.Errorf("%s: certified site 0x%x (%v), instance %d, bit %d: out = %d, want %d",
							fx.name, site, a.Prog.Instrs[i], k, bit, out, golden)
					}
				}
			}
		}
	}
	if runs == 0 {
		t.Fatal("no certified site to flip")
	}
}

// flipRun runs prog, flipping bit of the destination register of the
// instruction at site right after its k-th retirement (k = 0 flips
// nothing). It reports the global out, whether the run halted, and how
// many times site retired.
func flipRun(t *testing.T, prog *isa.Program, site uint64, k int, bit uint) (out int64, halted bool, seen int) {
	t.Helper()
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for steps := 0; !m.Halted && steps < 100000; steps++ {
		pc := m.PC
		in, _ := m.CurrentInstr()
		if m.Step() != nil {
			return 0, false, seen
		}
		if pc != site {
			continue
		}
		if seen++; seen == k {
			switch in.Info().Dest {
			case isa.DestInt:
				m.X[in.Rd] ^= 1 << bit
			case isa.DestFloat:
				m.F[in.Rd] = math.Float64frombits(math.Float64bits(m.F[in.Rd]) ^ 1<<bit)
			}
		}
	}
	if !m.Halted {
		return 0, false, seen
	}
	out, err = m.ReadGlobalInt("out", 0)
	if err != nil {
		t.Fatal(err)
	}
	return out, true, seen
}

// addrOfLoadInto finds the address of the first LD writing register rd.
func addrOfLoadInto(t *testing.T, a *Analysis, rd isa.Reg) uint64 {
	t.Helper()
	for i, in := range a.Prog.Instrs {
		if in.Info().Load && in.Rd == rd {
			return a.addr(i)
		}
	}
	t.Fatalf("no load into x%d", rd)
	return 0
}

// addrOfAddInto finds the address of the first ADDI writing register rd.
func addrOfAddInto(t *testing.T, a *Analysis, rd isa.Reg) uint64 {
	t.Helper()
	for i, in := range a.Prog.Instrs {
		if in.Op.String() == "addi" && in.Rd == rd {
			return a.addr(i)
		}
	}
	t.Fatalf("no addi into x%d", rd)
	return 0
}

const irreducibleLoop = `
	.entry _start
	_start:
	    li x1, 5
	    bne x1, x0, .b
	.a:
	    addi sp, sp, -8
	.b:
	    addi sp, sp, -8
	    addi x1, x1, -1
	    bne x1, x0, .a
	    halt
`

// TestStackDepthWideningIrreducibleLoop feeds the depth dataflow an
// irreducible region whose sp drift diverges: the loop has two entries
// and decrements sp on every trip, so the depth interval must widen to
// top instead of iterating forever, and the frame bound must fall back.
func TestStackDepthWideningIrreducibleLoop(t *testing.T) {
	a := analyze(t, irreducibleLoop)
	s, ok := a.Prog.Symbol("_start")
	if !ok {
		t.Fatal("no _start")
	}
	// The analysis terminated (we got here); the bound inside the loop
	// must come from the fallback, not a diverged interval.
	end := s.Addr + uint64(len(a.Prog.Instrs))*4
	sawFallback := false
	for addr := s.Addr; addr < end; addr += 4 {
		if _, src := a.FrameBoundAt(addr); src == BoundFallback {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Error("no instruction fell back after widening on the irreducible loop")
	}
	// The derived region machinery must stay sound on widened frames: the
	// pass runs without panicking and yields a non-empty partition.
	if len(a.Regions().All) == 0 {
		t.Error("empty region partition")
	}
}

const escapingBranch = `
	.entry _start
	.global out 8
	_start:
	    li x7, 42
	    beq x0, x0, other
	    halt
	other:
	    li x1, out
	    st x7, [x1+0]
	    halt
`

// TestLivenessAcrossEscapingBranch pins the conservative treatment of
// cross-function (tail-call style) branches: the escaping block's out-state
// is every register, so values computed before it stay live, and the
// dependency analysis keeps every region reachable from the function.
func TestLivenessAcrossEscapingBranch(t *testing.T) {
	a := analyze(t, escapingBranch)
	// The branch from _start targets another function: its block escapes.
	sawEscape := false
	for _, b := range a.Blocks {
		if b.Escapes {
			sawEscape = true
		}
	}
	if !sawEscape {
		t.Fatal("cross-function branch did not mark the block as escaping")
	}
	// x7 is consumed only on the far side of the escape; liveness must
	// keep it live at its definition.
	s, _ := a.Prog.Symbol("_start")
	if live, ok := a.DestLiveAt(s.Addr); !ok || !live {
		t.Errorf("li x7 before escaping branch: live=%v ok=%v, want live", live, ok)
	}
	// Repair safety must treat the escape conservatively: no destination
	// site in the escaping function may be certified safe.
	ss := checkpointSet(t, a, "out")
	f, _ := a.FuncAt(s.Addr)
	for _, bi := range f.Blocks {
		b := a.Blocks[bi]
		for addr := b.Start; addr < b.End; addr += 4 {
			if safe, ok := ss.RepairSafeAt(addr); ok && safe {
				t.Errorf("site 0x%x certified safe across an escaping branch", addr)
			}
		}
	}
}

func TestVetDeadRegionWrite(t *testing.T) {
	a := analyze(t, `
		.entry _start
		_start:
		    call main
		    halt
		main:
		    addi sp, sp, -16
		    li x1, 7
		    st x1, [sp+0]
		    addi sp, sp, 16
		    ret
	`)
	found := false
	for _, f := range a.Vet() {
		if f.Check == CheckDeadRegionWrite {
			found = true
		}
	}
	if !found {
		t.Errorf("store to a never-read frame not reported:\n%v", a.Vet())
	}
}

func TestVetDeadRegionWriteSilentOnReadFrames(t *testing.T) {
	a := analyze(t, stateApp)
	for _, f := range a.Vet() {
		if f.Check == CheckDeadRegionWrite {
			t.Errorf("false positive: %s", f)
		}
	}
}

func TestVetUninitOutput(t *testing.T) {
	a := analyze(t, `
		.entry _start
		.global out 8
		_start:
		    li x1, out
		    ld x2, [x1+0]
		    halt
	`)
	fs, err := a.VetOutputs([]string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range fs {
		if f.Check == CheckUninitOutput {
			found = true
		}
	}
	if !found {
		t.Errorf("never-written output not reported: %v", fs)
	}
}

func TestVetUninitOutputSilencedByInitializer(t *testing.T) {
	a := analyze(t, `
		.entry _start
		.double out 1.5
		_start:
		    li x1, out
		    fld f2, [x1+0]
		    halt
	`)
	fs, err := a.VetOutputs([]string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if f.Check == CheckUninitOutput {
			t.Errorf("initialized output flagged: %s", f)
		}
	}
}

func TestVetOutputsEmptyIsClean(t *testing.T) {
	a := analyze(t, stateApp)
	fs, err := a.VetOutputs(nil)
	if err != nil || fs != nil {
		t.Errorf("VetOutputs(nil) = %v, %v: want nil, nil", fs, err)
	}
}

func TestPassFrameworkMemoizesAndOrders(t *testing.T) {
	a := analyze(t, stateApp)
	for i := 0; i < 2; i++ { // the second demand must run nothing
		a.Regions()
		if _, err := a.CheckpointSet([]string{"out"}); err != nil {
			t.Fatal(err)
		}
	}

	// Each pass ran exactly once, in the fixed order Passes lists.
	stats := a.PassStats()
	if len(stats) != len(Passes()) {
		t.Fatalf("%d passes ran, want %d: %+v", len(stats), len(Passes()), stats)
	}
	for i, p := range Passes() {
		if stats[i].Name != p.Name {
			t.Errorf("pass %d is %s, want %s", i, stats[i].Name, p.Name)
		}
		if stats[i].Seconds < 0 {
			t.Errorf("pass %s: negative duration", p.Name)
		}
	}
}
