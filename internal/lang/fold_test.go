package lang

import (
	"math"
	"strings"
	"testing"

	"github.com/letgo-hpc/letgo/internal/asm"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// compileUnfolded compiles without the folding pass, for differential
// comparison.
func compileUnfolded(t *testing.T, src string) *vm.Machine {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	text, err := Generate(prog)
	if err != nil {
		t.Fatal(err)
	}
	return runAsm(t, text)
}

func runAsm(t *testing.T, text string) *vm.Machine {
	t.Helper()
	p, err := asm.Assemble(text)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(p, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

const foldSrc = `
	var a float;
	var b float;
	var c int;
	var d int;
	var e float;
	var f int;
	func main() {
		a = 2.0 * 3.0 + 1.0 / 4.0;
		b = sqrt(16.0) + fabs(0.0 - 2.5) + fmin(1.0, 2.0) + fmax(1.0, 2.0);
		c = (3 + 4) * 5 % 6;
		d = int(7.9) + int(float(3) + 0.5);
		e = float(10 / 3);
		f = (2 < 3) + (2.5 >= 2.5) + (1 && 2) + (0 || 0) + !1;
	}
`

func TestFoldingPreservesSemantics(t *testing.T) {
	folded := runMiniC2(t, foldSrc)
	unfolded := compileUnfolded(t, foldSrc)
	for _, g := range []string{"a", "b", "c", "d", "e", "f"} {
		fv, err := folded.ReadGlobalFloat(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		uv, err := unfolded.ReadGlobalFloat(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(fv) != math.Float64bits(uv) {
			t.Errorf("global %s: folded %v != unfolded %v", g, fv, uv)
		}
	}
}

func runMiniC2(t *testing.T, src string) *vm.Machine {
	t.Helper()
	m, _ := runMiniC(t, src)
	return m
}

func TestFoldingShrinksCode(t *testing.T) {
	prog, err := Parse(foldSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	unfolded, err := Generate(prog)
	if err != nil {
		t.Fatal(err)
	}
	Fold(prog)
	folded, err := Generate(prog)
	if err != nil {
		t.Fatal(err)
	}
	if nf, nu := strings.Count(folded, "\n"), strings.Count(unfolded, "\n"); nf >= nu {
		t.Errorf("folding did not shrink code: %d vs %d lines", nf, nu)
	}
}

func TestFoldingKeepsDivideByZeroTrap(t *testing.T) {
	p, err := Compile(`var r int; func main() { r = 1 / 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(p, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runErr := m.Run(1000)
	trap, ok := runErr.(*vm.Trap)
	if !ok || trap.Signal != vm.SIGFPE {
		t.Fatalf("err = %v, want SIGFPE (fold must not hide the trap)", runErr)
	}
	// Same for modulo.
	p, err = Compile(`var r int; func main() { r = 1 % 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m, _ = vm.New(p, vm.Config{})
	if trap, ok := m.Run(1000).(*vm.Trap); !ok || trap.Signal != vm.SIGFPE {
		t.Fatal("modulo by zero trap folded away")
	}
}

func TestFoldingFloatSpecials(t *testing.T) {
	m, _ := runMiniC(t, `
		var inf float;
		var nanzero int;
		func main() {
			inf = 1.0 / 0.0;       // IEEE: +Inf, no trap, foldable
			nanzero = int(0.0 / 0.0);
		}
	`)
	v, _ := m.ReadGlobalFloat("inf", 0)
	if !math.IsInf(v, 1) {
		t.Errorf("inf = %v", v)
	}
	nz, _ := m.ReadGlobalInt("nanzero", 0)
	if nz != 0 {
		t.Errorf("int(NaN) = %d, want 0", nz)
	}
}
