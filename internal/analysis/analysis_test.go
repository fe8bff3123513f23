package analysis

import (
	"strings"
	"testing"

	"github.com/letgo-hpc/letgo/internal/asm"
	"github.com/letgo-hpc/letgo/internal/isa"
)

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return Analyze(p)
}

// sym returns the address of a named symbol.
func sym(t *testing.T, a *Analysis, name string) uint64 {
	t.Helper()
	s, ok := a.Prog.Symbol(name)
	if !ok {
		t.Fatalf("no symbol %q", name)
	}
	return s.Addr
}

// balanced is a two-function program using the full Listing-1 discipline:
// _start calls main, main has a 16-byte frame with a loop and a mid-body
// push/pop pair around a call.
const balanced = `
	.entry _start
	_start:
	    call main
	    halt
	main:
	    push bp
	    mov bp, sp
	    addi sp, sp, -16
	    li x7, 3
	.loop:
	    push x7
	    call work
	    pop x7
	    addi x7, x7, -1
	    bne x7, x0, .loop
	    mov sp, bp
	    pop bp
	    ret
	work:
	    push bp
	    mov bp, sp
	    mov x0, x1
	    mov sp, bp
	    pop bp
	    ret
`

func TestCFGStructure(t *testing.T) {
	a := analyze(t, balanced)
	if len(a.Funcs) != 3 {
		t.Fatalf("funcs = %d, want 3 (_start, main, work):\n%s", len(a.Funcs), a)
	}
	mainAddr := sym(t, a, "main")
	f, ok := a.FuncAt(mainAddr)
	if !ok || f.Sym.Name != "main" {
		t.Fatalf("FuncAt(main) = %v, %v", f, ok)
	}
	// The loop back-edge must exist: some block in main has a successor
	// at or before its own start (the whole loop body is one block, so
	// the back-edge is a self-loop).
	back := false
	for _, bi := range f.Blocks {
		b := a.Blocks[bi]
		for _, si := range b.Succs {
			if a.Blocks[si].Start <= b.Start {
				back = true
			}
		}
	}
	if !back {
		t.Errorf("no loop back-edge found in main:\n%s", a)
	}
	for _, b := range a.Blocks {
		if b.FallsOff || b.Escapes {
			t.Errorf("block %d unexpectedly falls-off/escapes:\n%s", b.Index, a)
		}
		if !a.reach[b.Index] {
			t.Errorf("block %d unexpectedly unreachable:\n%s", b.Index, a)
		}
	}
}

func TestStackDepthTracksPushes(t *testing.T) {
	a := analyze(t, balanced)
	mainAddr := sym(t, a, "main")

	// Depth on entry to main: sp exactly 0, bp unknown.
	sp, bp, ok := a.DepthAt(mainAddr)
	if !ok {
		t.Fatal("main entry unreached")
	}
	if d, exact := sp.Exact(); !exact || d != 0 {
		t.Errorf("sp depth at entry = %v, want 0", sp)
	}
	if !bp.Top {
		t.Errorf("bp depth at entry = %v, want top", bp)
	}

	// After push bp; mov bp, sp; addi sp, sp, -16 the gap bp-sp is 16.
	body := mainAddr + 3*isa.InstrBytes // the li x7 after the prologue
	if g, ok := a.GapBoundAt(body); !ok || g != 16 {
		t.Errorf("gap at body = %d, %v, want 16", g, ok)
	}

	// Between `push x7` and `pop x7` one extra slot is live: gap 24. The
	// instruction right after `push x7` is the call.
	loop := body + isa.InstrBytes // .loop: push x7
	afterPush := loop + isa.InstrBytes
	if g, ok := a.GapBoundAt(afterPush); !ok || g != 24 {
		t.Errorf("gap after push = %d, %v, want 24", g, ok)
	}

	// FrameBoundAt picks the dataflow bound at both points.
	if b, src := a.FrameBoundAt(body); src != BoundDataflow || b != 16 {
		t.Errorf("FrameBoundAt(body) = %d, %v", b, src)
	}
	if b, src := a.FrameBoundAt(afterPush); src != BoundDataflow || b != 24 {
		t.Errorf("FrameBoundAt(afterPush) = %d, %v", b, src)
	}
}

func TestFrameBoundFallsBackOnOpaqueSP(t *testing.T) {
	a := analyze(t, `
		main:
		    mov sp, x1     ; opaque: dataflow loses sp
		    ld x2, [sp+0]
		    halt
	`)
	addr := sym(t, a, "main") + isa.InstrBytes
	if _, ok := a.GapBoundAt(addr); ok {
		t.Error("GapBoundAt should be inconclusive after mov sp, x1")
	}
	// No Listing-1 prologue either, so the named fallback applies.
	if b, src := a.FrameBoundAt(addr); src != BoundFallback || b != FallbackFrameBytes {
		t.Errorf("FrameBoundAt = %d, %v, want fallback %d", b, src, FallbackFrameBytes)
	}
}

func TestPrologueFrameEdgeCases(t *testing.T) {
	// A zero-frame leaf (no ADDI) and a two-instruction function at the
	// very end of the code segment: both are valid zero frames.
	a := analyze(t, `
		.entry main
		main:
		    push bp
		    mov bp, sp
		    mov sp, bp
		    pop bp
		    halt
		tail:
		    push bp
		    mov bp, sp
	`)
	if n, ok := a.PrologueFrame(sym(t, a, "main")); !ok || n != 0 {
		t.Errorf("leaf frame = %d, %v, want 0, true", n, ok)
	}
	if n, ok := a.PrologueFrame(sym(t, a, "tail")); !ok || n != 0 {
		t.Errorf("end-of-segment frame = %d, %v, want 0, true", n, ok)
	}

	b := analyze(t, `
		main:
		    li x1, 1
		    halt
	`)
	if _, ok := b.PrologueFrame(sym(t, b, "main")); ok {
		t.Error("non-prologue function should report ok=false")
	}
}

func TestDestLiveness(t *testing.T) {
	a := analyze(t, `
		.int g 0
		main:
		    li x1, 0x10000  ; &g
		    ld x2, [x1+0]   ; live: printed below
		    ld x3, [x1+0]   ; dead: never read again
		    printi x2
		    halt
	`)
	m := sym(t, a, "main")
	liveLd := m + 1*isa.InstrBytes
	deadLd := m + 2*isa.InstrBytes
	if live, ok := a.DestLiveAt(liveLd); !ok || !live {
		t.Errorf("x2 load: live=%v ok=%v, want live", live, ok)
	}
	if live, ok := a.DestLiveAt(deadLd); !ok || live {
		t.Errorf("x3 load: live=%v ok=%v, want dead", live, ok)
	}
	// printi has no destination.
	if _, ok := a.DestLiveAt(m + 3*isa.InstrBytes); ok {
		t.Error("printi should report ok=false (no destination)")
	}
}

func TestLivenessThroughCallAndLoop(t *testing.T) {
	a := analyze(t, balanced)
	// In main's loop, the `pop x7` restores the counter which the addi
	// and bne then read: x7 must be live right after the pop retires.
	mainAddr := sym(t, a, "main")
	pop := mainAddr + 6*isa.InstrBytes
	if in, ok := a.Prog.InstrAt(pop); !ok || in.Op != isa.POP {
		t.Fatalf("instr at pop site = %v, %v", in, ok)
	}
	if live, ok := a.DestLiveAt(pop); !ok || !live {
		t.Errorf("pop x7 in loop: live=%v ok=%v, want live", live, ok)
	}
}

func TestVetCleanOnBalancedProgram(t *testing.T) {
	a := analyze(t, balanced)
	if fs := a.Vet(); len(fs) != 0 {
		t.Errorf("vet findings on clean program:\n%v", fs)
	}
}

func TestVetUnreachable(t *testing.T) {
	a := analyze(t, `
		main:
		    jmp .end
		    li x1, 1      ; unreachable
		.end:
		    halt
	`)
	requireFinding(t, a.Vet(), CheckUnreachable)
}

func TestVetFallsOff(t *testing.T) {
	a := analyze(t, `
		main:
		    li x1, 1      ; runs into f
		f:
		    halt
	`)
	requireFinding(t, a.Vet(), CheckFallsOff)
}

func TestVetMisaligned(t *testing.T) {
	a := analyze(t, `
		main:
		    ld x1, [x2+4]
		    halt
	`)
	requireFinding(t, a.Vet(), CheckMisaligned)
}

func TestVetUninitRead(t *testing.T) {
	a := analyze(t, `
		main:
		    add x0, x7, x8   ; x7/x8 are temps, never written
		    ret
	`)
	fs := a.Vet()
	requireFinding(t, fs, CheckUninitRead)
	found := false
	for _, f := range fs {
		if f.Check == CheckUninitRead && strings.Contains(f.Msg, "x7") && strings.Contains(f.Msg, "x8") {
			found = true
		}
	}
	if !found {
		t.Errorf("uninit-read should name x7 and x8: %v", fs)
	}
}

func TestVetUnbalanced(t *testing.T) {
	a := analyze(t, `
		main:
		    push x1
		    ret            ; depth 8, want 0
	`)
	requireFinding(t, a.Vet(), CheckUnbalanced)

	b := analyze(t, `
		main:
		    pop x1         ; pops the return address
		    ret
	`)
	requireFinding(t, b.Vet(), CheckUnbalanced)
}

func TestVetBadCallTarget(t *testing.T) {
	a := analyze(t, `
		main:
		    call .mid      ; mid-function target, not an entry
		    halt
		f:
		    li x1, 1
		.mid:
		    ret
	`)
	requireFinding(t, a.Vet(), CheckBadCall)
}

func TestVetBadBranch(t *testing.T) {
	a := analyze(t, `
		main:
		    jmp 0x9999990  ; outside the code segment
	`)
	requireFinding(t, a.Vet(), CheckBadBranch)
}

func requireFinding(t *testing.T, fs []Finding, c Check) {
	t.Helper()
	for _, f := range fs {
		if f.Check == c {
			return
		}
	}
	t.Errorf("no %s finding in %v", c, fs)
}

func TestCFGString(t *testing.T) {
	a := analyze(t, balanced)
	s := a.String()
	for _, want := range []string{"func _start", "func main", "func work"} {
		if !strings.Contains(s, want) {
			t.Errorf("CFG dump missing %q:\n%s", want, s)
		}
	}
}
