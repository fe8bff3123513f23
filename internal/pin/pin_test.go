package pin

import (
	"testing"
	"testing/quick"

	"github.com/letgo-hpc/letgo/internal/asm"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/vm"
)

const frameSrc = `
	.entry main
	main:
	    push bp
	    mov bp, sp
	    addi sp, sp, -656      ; the paper's 0x290 example
	    li x1, 3
	    call leaf
	    call noalloc
	    mov sp, bp
	    pop bp
	    halt
	leaf:
	    li x0, 1
	    ret
	noalloc:
	    push bp
	    mov bp, sp
	    li x0, 2
	    pop bp
	    ret
`

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(p)
}

func TestFrameSizeFromPrologue(t *testing.T) {
	a := analyze(t, frameSrc)
	main, _ := a.Program().Symbol("main")
	size, ok := a.Static().PrologueFrame(main.Addr + 4*isa.InstrBytes)
	if !ok || size != 656 {
		t.Errorf("PrologueFrame(main) = %d,%v, want 656", size, ok)
	}
	// Cache path returns the same answer.
	size2, ok2 := a.Static().PrologueFrame(main.Addr)
	if size2 != size || ok2 != ok {
		t.Error("cached PrologueFrame differs")
	}
}

func TestFrameSizeLeafWithoutPrologue(t *testing.T) {
	a := analyze(t, frameSrc)
	leaf, _ := a.Program().Symbol("leaf")
	if _, ok := a.Static().PrologueFrame(leaf.Addr); ok {
		t.Error("leaf without prologue reported a frame")
	}
}

func TestFrameSizeNoAllocPrologue(t *testing.T) {
	a := analyze(t, frameSrc)
	fn, _ := a.Program().Symbol("noalloc")
	size, ok := a.Static().PrologueFrame(fn.Addr + isa.InstrBytes)
	if !ok || size != 0 {
		t.Errorf("PrologueFrame(noalloc) = %d,%v, want 0,true", size, ok)
	}
}

func TestFrameSizeShortFunctions(t *testing.T) {
	// Functions shorter than three instructions: a one-instruction
	// function can't carry a prologue; a two-instruction `push bp;
	// mov bp, sp` is a complete zero-frame prologue even when nothing
	// follows it in the code segment.
	a := analyze(t, `
		.entry main
		main:
		    push bp
		    mov bp, sp
		    addi sp, sp, -16
		    mov sp, bp
		    pop bp
		    halt
		tiny:
		    ret
		last:
		    push bp
		    mov bp, sp
	`)
	tiny, _ := a.Program().Symbol("tiny")
	if _, ok := a.Static().PrologueFrame(tiny.Addr); ok {
		t.Error("one-instruction function reported a frame")
	}
	// `last` ends the code segment: the third InstrAt read fails, which
	// the old triple-read scan quietly turned into ok=false. The prologue
	// is nonetheless complete with a zero-size frame.
	last, _ := a.Program().Symbol("last")
	size, ok := a.Static().PrologueFrame(last.Addr + isa.InstrBytes)
	if !ok || size != 0 {
		t.Errorf("PrologueFrame(last) = %d,%v, want 0,true", size, ok)
	}
}

func TestFrameSizeLastFunctionWithAlloc(t *testing.T) {
	// A full prologue whose ADDI is the final instruction of the code
	// segment must still report its frame.
	a := analyze(t, `
		.entry main
		main:
		    halt
		tail:
		    push bp
		    mov bp, sp
		    addi sp, sp, -64
	`)
	tail, _ := a.Program().Symbol("tail")
	size, ok := a.Static().PrologueFrame(tail.Addr)
	if !ok || size != 64 {
		t.Errorf("PrologueFrame(tail) = %d,%v, want 64,true", size, ok)
	}
}

func TestFrameSizeOutsideAnyFunction(t *testing.T) {
	a := analyze(t, frameSrc)
	if _, ok := a.Static().PrologueFrame(isa.CodeBase + 1<<20); ok {
		t.Error("frame size found outside code")
	}
}

func TestProfileCountsLoop(t *testing.T) {
	a := analyze(t, `
		main:
		    li x1, 0
		    li x2, 5
		.loop:
		    bge x1, x2, .done
		    addi x1, x1, 1
		    jmp .loop
		.done:
		    halt
	`)
	prof, err := a.ProfileRun(vm.Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// li, li, 6x bge, 5x addi, 5x jmp, halt = 2 + 6 + 5 + 5 + 1 = 19.
	if prof.Total != 19 {
		t.Errorf("total = %d, want 19", prof.Total)
	}
	if prof.CountAt(isa.CodeBase+2*isa.InstrBytes) != 6 {
		t.Errorf("bge count = %d, want 6", prof.CountAt(isa.CodeBase+2*isa.InstrBytes))
	}
	if prof.CountAt(isa.CodeBase) != 1 {
		t.Errorf("first li count = %d, want 1", prof.CountAt(isa.CodeBase))
	}
	if prof.CountAt(isa.CodeBase-8) != 0 || prof.CountAt(1<<40) != 0 {
		t.Error("out-of-range CountAt should be 0")
	}
}

func TestProfileFailsOnNonHaltingRun(t *testing.T) {
	a := analyze(t, "main:\n jmp main\n")
	if _, err := a.ProfileRun(vm.Config{}, 100); err == nil {
		t.Error("profiling an infinite loop should fail")
	}
}

func TestProfileFailsOnTrappingRun(t *testing.T) {
	a := analyze(t, "main:\n li x1, 64\n ld x2, [x1]\n halt\n")
	if _, err := a.ProfileRun(vm.Config{}, 100); err == nil {
		t.Error("profiling a trapping program should fail")
	}
}

func TestSiteOfBijection(t *testing.T) {
	a := analyze(t, `
		main:
		    li x1, 0
		    li x2, 7
		.loop:
		    bge x1, x2, .done
		    addi x1, x1, 1
		    jmp .loop
		.done:
		    halt
	`)
	prof, err := a.ProfileRun(vm.Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Every dynamic index maps to a site whose instance is within the
	// static count, and consecutive indices never map to the same site.
	seen := map[Site]bool{}
	for d := uint64(0); d < prof.Total; d++ {
		s, err := prof.SiteOf(d)
		if err != nil {
			t.Fatalf("SiteOf(%d): %v", d, err)
		}
		if s.Instance == 0 || s.Instance > prof.CountAt(s.Addr) {
			t.Fatalf("SiteOf(%d) = %+v: instance out of range", d, s)
		}
		if seen[s] {
			t.Fatalf("site %+v repeated", s)
		}
		seen[s] = true
	}
	if _, err := prof.SiteOf(prof.Total); err == nil {
		t.Error("SiteOf(Total) should fail")
	}
}

func TestSiteOfProperty(t *testing.T) {
	prof := &Profile{Total: 10, Counts: []uint64{3, 0, 5, 2}}
	f := func(d uint64) bool {
		d %= prof.Total
		s, err := prof.SiteOf(d)
		if err != nil {
			return false
		}
		idx := (s.Addr - isa.CodeBase) / isa.InstrBytes
		return s.Instance >= 1 && s.Instance <= prof.Counts[idx]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNextPCAndInstrAt(t *testing.T) {
	a := analyze(t, "main:\n nop\n nop\n halt\n")
	next, ok := a.NextPC(isa.CodeBase)
	if !ok || next != isa.CodeBase+isa.InstrBytes {
		t.Errorf("NextPC = %#x,%v", next, ok)
	}
	in, ok := a.InstrAt(isa.CodeBase + 2*isa.InstrBytes)
	if !ok || in.Op != isa.HALT {
		t.Error("InstrAt missed halt")
	}
	if _, ok := a.NextPC(isa.CodeBase + 2*isa.InstrBytes); ok {
		t.Error("NextPC past end should fail")
	}
	if fn, ok := a.FuncAt(isa.CodeBase + isa.InstrBytes); !ok || fn.Name != "main" {
		t.Error("FuncAt failed")
	}
}

func TestOpcodeMix(t *testing.T) {
	a := analyze(t, `
		main:
		    li x1, 0
		    li x2, 5
		.loop:
		    bge x1, x2, .done
		    addi x1, x1, 1
		    jmp .loop
		.done:
		    halt
	`)
	prof, err := a.ProfileRun(vm.Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	mix := a.OpcodeMix(prof)
	if mix[isa.LI] != 2 || mix[isa.ADDI] != 5 || mix[isa.BGE] != 6 || mix[isa.JMP] != 5 || mix[isa.HALT] != 1 {
		t.Errorf("mix = %v", mix)
	}
	var total uint64
	for _, c := range mix {
		total += c
	}
	if total != prof.Total {
		t.Errorf("mix total %d != profile total %d", total, prof.Total)
	}
}
