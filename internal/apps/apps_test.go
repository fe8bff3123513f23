package apps

import (
	"math"
	"testing"

	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/lang"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/vm"
)

const runBudget = 50_000_000

// goldenRun runs an app fault-free to completion.
func goldenRun(t *testing.T, a *App) *vm.Machine {
	t.Helper()
	m, err := a.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(runBudget); err != nil {
		t.Fatalf("%s golden run: %v", a.Name, err)
	}
	return m
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("len(All()) = %d", len(all))
	}
	names := map[string]bool{}
	for _, a := range all {
		names[a.Name] = true
	}
	for _, want := range []string{"LULESH", "CLAMR", "HPL", "COMD", "SNAP", "PENNANT"} {
		if !names[want] {
			t.Errorf("missing app %s", want)
		}
	}
	it := Iterative()
	if len(it) != 5 {
		t.Errorf("iterative apps = %d, want 5 (HPL is direct)", len(it))
	}
	for _, a := range it {
		if a.Name == "HPL" {
			t.Error("HPL listed as iterative")
		}
	}
	if _, ok := ByName("HPL"); !ok {
		t.Error("ByName(HPL) failed")
	}
	if _, ok := ByName("NOPE"); ok {
		t.Error("ByName(NOPE) succeeded")
	}
}

func TestAllAppsCompile(t *testing.T) {
	for _, a := range All() {
		if _, err := a.Compile(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestGoldenRunsPassAcceptance(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			m := goldenRun(t, a)
			ok, err := a.Accept(m)
			if err != nil {
				t.Fatalf("accept: %v", err)
			}
			if !ok {
				t.Fatal("fault-free run failed its own acceptance check")
			}
			out, err := a.Output(m)
			if err != nil {
				t.Fatalf("output: %v", err)
			}
			if len(out) == 0 {
				t.Fatal("empty output")
			}
			nonzero := 0
			for _, v := range out {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite output value %v", v)
				}
				if v != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Fatal("output is all zeros")
			}
		})
	}
}

func TestGoldenDeterminism(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			m1 := goldenRun(t, a)
			m2 := goldenRun(t, a)
			o1, err := a.Output(m1)
			if err != nil {
				t.Fatal(err)
			}
			o2, err := a.Output(m2)
			if err != nil {
				t.Fatal(err)
			}
			for i := range o1 {
				if math.Float64bits(o1[i]) != math.Float64bits(o2[i]) {
					t.Fatalf("output %d differs across identical runs", i)
				}
			}
			if m1.Retired != m2.Retired {
				t.Error("retired instruction counts differ")
			}
		})
	}
}

func TestDynamicInstructionCounts(t *testing.T) {
	// Apps must be big enough to be interesting and small enough to run
	// tens of thousands of injections: 50k..5M dynamic instructions.
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			m := goldenRun(t, a)
			if m.Retired < 50_000 || m.Retired > 5_000_000 {
				t.Errorf("%s retired %d instructions, want 50k..5M", a.Name, m.Retired)
			}
			t.Logf("%s: %d dynamic instructions, %d static", a.Name, m.Retired, len(m.Prog.Instrs))
		})
	}
}

func TestMatchesGolden(t *testing.T) {
	a := &App{Tolerance: 0}
	if !a.MatchesGolden([]float64{1, 2}, []float64{1, 2}) {
		t.Error("identical outputs rejected (bitwise)")
	}
	if a.MatchesGolden([]float64{1, 2}, []float64{1, 2 + 1e-15}) {
		t.Error("bitwise comparison accepted a differing value")
	}
	if a.MatchesGolden([]float64{1}, []float64{1, 2}) {
		t.Error("length mismatch accepted")
	}
	b := &App{Tolerance: 1e-9}
	if !b.MatchesGolden([]float64{1}, []float64{1 + 1e-12}) {
		t.Error("tolerant comparison rejected a tiny difference")
	}
	if b.MatchesGolden([]float64{1}, []float64{1.1}) {
		t.Error("tolerant comparison accepted a big difference")
	}
	if b.MatchesGolden([]float64{math.NaN()}, []float64{math.NaN()}) {
		t.Error("NaN should not match under tolerance")
	}
	if !b.MatchesGolden([]float64{0}, []float64{0}) {
		t.Error("zeros should match")
	}
}

func TestAcceptanceChecksCatchCorruption(t *testing.T) {
	// Corrupt a representative invariant-bearing global in each finished
	// machine and verify the acceptance check notices.
	cases := []struct {
		app    string
		global string
		value  float64
	}{
		{"LULESH", "symmetry", 1.0},
		{"LULESH", "origin_energy", 123.0},
		{"CLAMR", "max_mass_change", 0.5},
		{"HPL", "resid", 1e6},
		{"COMD", "efinal", 123.0},
		{"SNAP", "asymmetry", 0.1},
		{"PENNANT", "efinal", 99.0},
	}
	for _, c := range cases {
		t.Run(c.app+"/"+c.global, func(t *testing.T) {
			a, ok := ByName(c.app)
			if !ok {
				t.Fatal("app missing")
			}
			m := goldenRun(t, a)
			sym, ok := m.Prog.Symbol(c.global)
			if !ok {
				t.Fatalf("global %s missing", c.global)
			}
			if err := m.Mem.WriteFloat(sym.Addr, c.value); err != nil {
				t.Fatal(err)
			}
			pass, err := a.Accept(m)
			if err != nil {
				t.Fatal(err)
			}
			if pass {
				t.Errorf("acceptance check missed corrupted %s", c.global)
			}
		})
	}
}

func TestAcceptanceCatchesNaN(t *testing.T) {
	for _, c := range []struct{ app, global string }{
		{"LULESH", "symmetry"},
		{"COMD", "efinal"},
		{"PENNANT", "e0"},
		{"SNAP", "asymmetry"},
		{"HPL", "resid"},
	} {
		a, _ := ByName(c.app)
		m := goldenRun(t, a)
		sym, _ := m.Prog.Symbol(c.global)
		if err := m.Mem.WriteFloat(sym.Addr, math.NaN()); err != nil {
			t.Fatal(err)
		}
		if pass, _ := a.Accept(m); pass {
			t.Errorf("%s acceptance passed with NaN %s", c.app, c.global)
		}
	}
}

func TestIterationCountChecks(t *testing.T) {
	// Apps whose acceptance includes an exact iteration count must fail
	// when the counter is off by one (a common control-flow corruption).
	for _, c := range []struct{ app, global string }{
		{"LULESH", "iters"},
		{"CLAMR", "iters"},
		{"SNAP", "iters"},
		{"COMD", "steps_done"},
		{"PENNANT", "steps_done"},
	} {
		a, _ := ByName(c.app)
		m := goldenRun(t, a)
		sym, _ := m.Prog.Symbol(c.global)
		v, err := m.Mem.Read8(sym.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Mem.Write8(sym.Addr, v-1); err != nil {
			t.Fatal(err)
		}
		if pass, _ := a.Accept(m); pass {
			t.Errorf("%s acceptance passed with wrong %s", c.app, c.global)
		}
	}
}

func TestEnergyDriftMargins(t *testing.T) {
	// The conservation thresholds must have real headroom over the
	// fault-free drift, or acceptance would flap.
	type drift struct {
		app      string
		e0, ef   string
		maxDrift float64
	}
	for _, d := range []drift{
		{"COMD", "e0", "efinal", 1e-5},
		{"PENNANT", "e0", "efinal", 2.5e-3},
	} {
		a, _ := ByName(d.app)
		m := goldenRun(t, a)
		e0, err := readFloat(m, d.e0)
		if err != nil {
			t.Fatal(err)
		}
		ef, err := readFloat(m, d.ef)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(ef-e0) / math.Abs(e0)
		t.Logf("%s golden energy drift: %.3g", d.app, rel)
		if rel > d.maxDrift {
			t.Errorf("%s drift %v exceeds margin %v", d.app, rel, d.maxDrift)
		}
	}
}

func TestHPLResidualIsSmall(t *testing.T) {
	a, _ := ByName("HPL")
	m := goldenRun(t, a)
	resid, err := readFloat(m, "resid")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("HPL backward error: %v", resid)
	if resid <= 0 || resid > 1 {
		t.Errorf("golden residual %v out of the comfortable range (0, 1]", resid)
	}
}

func TestSNAPFluxExactlySymmetric(t *testing.T) {
	a, _ := ByName("SNAP")
	m := goldenRun(t, a)
	asym, err := readFloat(m, "asymmetry")
	if err != nil {
		t.Fatal(err)
	}
	if asym != 0 {
		t.Errorf("golden SNAP asymmetry = %v, want exactly 0 (mirror sweeps)", asym)
	}
}

func TestFrameSizesRecoverable(t *testing.T) {
	// Heuristic II depends on recovering frame sizes for every compiled
	// function of every app.
	for _, a := range All() {
		p, err := a.Compile()
		if err != nil {
			t.Fatal(err)
		}
		an := pin.Analyze(p)
		for _, s := range p.Symbols {
			if s.Kind != 0 /* SymFunc */ || s.Name == "_start" {
				continue
			}
			if _, ok := an.Static().PrologueFrame(s.Addr); !ok {
				t.Errorf("%s: no frame size for %s", a.Name, s.Name)
			}
		}
	}
}

func TestLULESHSizedScales(t *testing.T) {
	// The Section-6.2 input-size experiment needs LULESH at several sizes;
	// the generated sources must compile and run with proportional cost.
	small, err := lang.Compile(LULESHSource(8, 10))
	if err != nil {
		t.Fatal(err)
	}
	big, err := lang.Compile(LULESHSource(16, 20))
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *isa.Program) uint64 {
		m, err := vm.New(p, vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(1 << 28); err != nil {
			t.Fatal(err)
		}
		return m.Retired
	}
	s, b := run(small), run(big)
	// 16^2*20 / (8^2*10) = 8x the cell-steps; allow generous slack.
	if b < 5*s || b > 12*s {
		t.Errorf("scaling off: small %d, big %d", s, b)
	}
}

func TestAppFaultSurface(t *testing.T) {
	// Sanity on the instruction mix that defines the fault surface: every
	// app must spend a meaningful fraction of dynamic instructions on
	// memory accesses (crash surface) and on instructions with destination
	// registers (injection targets).
	for _, a := range All() {
		p, err := a.Compile()
		if err != nil {
			t.Fatal(err)
		}
		an := pin.Analyze(p)
		prof, err := an.ProfileRun(vm.Config{}, 1<<31)
		if err != nil {
			t.Fatal(err)
		}
		mix := an.OpcodeMix(prof)
		var memOps, destOps uint64
		for op, c := range mix {
			info := isa.OpInfo(op)
			if info.Load || info.Store {
				memOps += c
			}
			if info.Dest != isa.DestNone {
				destOps += c
			}
		}
		memFrac := float64(memOps) / float64(prof.Total)
		destFrac := float64(destOps) / float64(prof.Total)
		t.Logf("%s: %.0f%% memory ops, %.0f%% dest-bearing", a.Name, 100*memFrac, 100*destFrac)
		if memFrac < 0.10 {
			t.Errorf("%s: memory-op fraction %.2f too low for a realistic crash surface", a.Name, memFrac)
		}
		if destFrac < 0.50 {
			t.Errorf("%s: dest-bearing fraction %.2f too low", a.Name, destFrac)
		}
	}
}
