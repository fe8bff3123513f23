package inject

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/core"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/lang"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/outcome"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/stats"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// testApp is a small, fast convergent kernel for injector unit tests.
func testApp(t *testing.T) *apps.App {
	t.Helper()
	a := &apps.App{
		Name:      "JACOBI-TEST",
		Domain:    "test",
		Iterative: true,
		Tolerance: 1e-10,
		Source: `
			var u [32] float;
			var tmp [32] float;
			var residual float;
			var iters int;
			func main() {
				var i int;
				var s int;
				u[31] = 1.0;
				for (s = 0; s < 40; s = s + 1) {
					for (i = 1; i < 31; i = i + 1) {
						tmp[i] = 0.5 * (u[i-1] + u[i+1]);
					}
					for (i = 1; i < 31; i = i + 1) {
						u[i] = tmp[i];
					}
					iters = iters + 1;
				}
				residual = 0.0;
				for (i = 1; i < 31; i = i + 1) {
					residual = residual + fabs(u[i] - 0.5 * (u[i-1] + u[i+1]));
				}
			}
		`,
		Accept: func(m *vm.Machine) (bool, error) {
			iters, err := m.ReadGlobalInt("iters", 0)
			if err != nil {
				return false, err
			}
			if iters != 40 {
				return false, nil
			}
			r, err := m.ReadGlobalFloat("residual", 0)
			if err != nil {
				return false, err
			}
			return r >= 0 && r < 0.5, nil
		},
		Output: func(m *vm.Machine) ([]float64, error) {
			return m.ReadGlobalFloats("u", 32)
		},
	}
	if _, err := a.Compile(); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSamplePlanTargetsDestRegisters(t *testing.T) {
	a := testApp(t)
	prog, _ := a.Compile()
	an := pin.Analyze(prog)
	prof, err := an.ProfileRun(vm.Config{}, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 500; i++ {
		plan, err := SamplePlan(prog, prof, rng)
		if err != nil {
			t.Fatal(err)
		}
		in, ok := prog.InstrAt(plan.Site.Addr)
		if !ok {
			t.Fatal("plan outside code")
		}
		if in.Info().Dest == isa.DestNone {
			t.Fatalf("plan targets %v with no destination", in)
		}
		if plan.Site.Instance == 0 || plan.Site.Instance > prof.CountAt(plan.Site.Addr) {
			t.Fatalf("instance %d out of range", plan.Site.Instance)
		}
		if plan.Mask == 0 || plan.Mask&(plan.Mask-1) != 0 {
			t.Fatalf("single-bit mask %#x", plan.Mask)
		}
	}
}

func TestExecuteInjectsExactlyOneFlip(t *testing.T) {
	// Flipping a high mantissa bit of an FLI destination register changes
	// the value the program computes with; the run finishes (no pointer
	// involved) and the output differs from golden.
	src := `
		var out float;
		func main() { out = 1.0; out = out + 0.0; }
	`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	an := pin.Analyze(prog)
	prof, err := an.ProfileRun(vm.Config{}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Find the FLI 1.0 instruction.
	var site pin.Site
	found := false
	for i, in := range prog.Instrs {
		if in.Op == isa.FLI && in.Float() == 1.0 {
			addr := isa.CodeBase + uint64(i)*isa.InstrBytes
			if prof.CountAt(addr) == 1 {
				site = pin.Site{Addr: addr, Instance: 1}
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no FLI 1.0 site found")
	}
	// Bit 51 (top mantissa bit): 1.0 -> 1.5.
	ro, err := Execute(prog, an, Plan{Site: site, Mask: 1 << 51}, NoLetGo, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.Finished {
		t.Fatalf("run did not finish: %+v", ro)
	}
	v, err := ro.Machine.ReadGlobalFloat("out", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1.5 {
		t.Errorf("out = %v, want 1.5 after mantissa flip", v)
	}
}

// TestExecuteRefusesUnreachablePlans pins the three ways the rerun engine
// declines a plan: instance 0 (which would wrap the ignore count and run
// the whole program first) and a site outside code are refused before a
// machine exists, and a run that ends before the site says how far it got.
func TestExecuteRefusesUnreachablePlans(t *testing.T) {
	a := testApp(t)
	prog, _ := a.Compile()
	an := pin.Analyze(prog)
	prof, err := an.ProfileRun(vm.Config{}, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	// A static instruction in the stencil loop: executed many times.
	var addr, count uint64
	for i := range prog.Instrs {
		at := isa.CodeBase + uint64(i)*isa.InstrBytes
		if c := prof.CountAt(at); c > count {
			addr, count = at, c
		}
	}
	for _, tc := range []struct {
		name   string
		site   pin.Site
		budget uint64
		want   []string
	}{
		{"instance zero", pin.Site{Addr: addr, Instance: 0}, 1 << 24,
			[]string{"instance 0", fmt.Sprintf("Addr:%d", addr)}},
		{"outside code", pin.Site{Addr: isa.CodeBase + 1<<30, Instance: 1}, 1 << 24,
			[]string{"outside code", fmt.Sprintf("Addr:%d", uint64(isa.CodeBase+1<<30))}},
		{"halts first", pin.Site{Addr: addr, Instance: count + 5}, 1 << 24,
			[]string{"never reached", "stop halt", fmt.Sprintf("at %d retired", prof.Total),
				fmt.Sprintf("%d of %d hits", count, count+5)}},
		{"budget first", pin.Site{Addr: addr, Instance: count}, prof.Total / 2,
			[]string{"never reached", "stop budget", fmt.Sprintf("at %d retired", prof.Total/2),
				fmt.Sprintf("of %d hits", count)}},
	} {
		_, err := Execute(prog, an, Plan{Site: tc.site, Mask: 1}, NoLetGo, tc.budget)
		if err == nil {
			t.Errorf("%s: Execute accepted the plan", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, w)
			}
		}
	}
}

func TestExecuteCrashWithoutLetGo(t *testing.T) {
	// Flip the top bit of an address-forming register: guaranteed SIGSEGV
	// without LetGo.
	src := `
		var g [8] float;
		var out float;
		func main() { out = g[3]; }
	`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	an := pin.Analyze(prog)
	prof, err := an.ProfileRun(vm.Config{}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Find the LI that loads the array base address.
	g, _ := prog.Symbol("g")
	var site pin.Site
	for i, in := range prog.Instrs {
		if in.Op == isa.LI && uint64(in.Imm) == g.Addr {
			addr := isa.CodeBase + uint64(i)*isa.InstrBytes
			if prof.CountAt(addr) > 0 {
				site = pin.Site{Addr: addr, Instance: 1}
				break
			}
		}
	}
	if site.Addr == 0 {
		t.Fatal("no LI site found")
	}

	ro, err := Execute(prog, an, Plan{Site: site, Mask: 1 << 45}, NoLetGo, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Finished || ro.Signal != vm.SIGSEGV {
		t.Fatalf("outcome = %+v, want SIGSEGV crash", ro)
	}

	// Same injection under LetGo-E: the crash is elided; Heuristic I
	// fills the loaded value with 0 and the run completes.
	ro, err = Execute(prog, an, Plan{Site: site, Mask: 1 << 45}, LetGoE, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.Finished || !ro.Repaired {
		t.Fatalf("outcome = %+v, want repaired completion", ro)
	}
}

func TestCampaignDeterminism(t *testing.T) {
	a := testApp(t)
	run := func(workers int) *Result {
		c := &Campaign{App: a, Mode: LetGoE, N: 40, Seed: 99, Workers: workers}
		r, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1 := run(1)
	r2 := run(4)
	if r1.Counts != r2.Counts {
		t.Errorf("counts differ across worker counts:\n%+v\n%+v", r1.Counts, r2.Counts)
	}
}

func TestCampaignClassifiesReasonably(t *testing.T) {
	a := testApp(t)
	log := &executionLog{byIx: map[int]Execution{}}
	c := &Campaign{App: a, Mode: NoLetGo, N: 120, Seed: 7, Observer: log}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Counts.N != 120 {
		t.Fatalf("N = %d", r.Counts.N)
	}
	// Without LetGo there can be no continued or double-crash outcomes.
	for _, cl := range []outcome.Class{outcome.CBenign, outcome.CSDC, outcome.CDetected, outcome.DoubleCrash} {
		if r.Counts.By[cl] != 0 {
			t.Errorf("%v = %d without LetGo", cl, r.Counts.By[cl])
		}
	}
	// Single-bit flips must produce a mix: some benign, some crashes.
	if r.Counts.By[outcome.Benign] == 0 {
		t.Error("no benign outcomes at all")
	}
	if r.Counts.CrashTotal() == 0 {
		t.Error("no crashes at all")
	}
	if r.PCrash <= 0 || r.PCrash >= 1 {
		t.Errorf("PCrash = %v", r.PCrash)
	}
	signals := 0
	for _, e := range log.byIx {
		if e.Signal != "" {
			signals++
		}
	}
	if signals == 0 {
		t.Error("no crash signals recorded")
	}
}

func TestCampaignLetGoEContinuesSomeCrashes(t *testing.T) {
	a := testApp(t)
	c := &Campaign{App: a, Mode: LetGoE, N: 120, Seed: 7}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	cont := r.Counts.By[outcome.CBenign] + r.Counts.By[outcome.CSDC] + r.Counts.By[outcome.CDetected]
	if cont == 0 {
		t.Error("LetGo-E continued no crashes")
	}
	if r.Metrics.Continuability <= 0 || r.Metrics.Continuability > 1 {
		t.Errorf("continuability = %v", r.Metrics.Continuability)
	}
	sum := r.Metrics.ContinuedCorrect + r.Metrics.ContinuedDetected + r.Metrics.ContinuedSDC
	if math.Abs(sum-r.Metrics.Continuability) > 1e-9 {
		t.Error("metric identity violated")
	}
}

func TestCampaignAblationOptions(t *testing.T) {
	a := testApp(t)
	opts := core.Options{Mode: core.ModeEnhanced, DisableH1: true, DisableH2: true}
	c := &Campaign{App: a, Mode: LetGoE, N: 40, Seed: 3, Opts: &opts}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Counts.N != 40 {
		t.Error("ablation campaign incomplete")
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := (&Campaign{}).Run(); err == nil {
		t.Error("empty campaign accepted")
	}
	a := testApp(t)
	if _, err := (&Campaign{App: a, N: 0}).Run(); err == nil {
		t.Error("zero-N campaign accepted")
	}
}

func TestFaultModels(t *testing.T) {
	prog, err := lang.Compile(`var out float; func main() { out = 1.0; }`)
	if err != nil {
		t.Fatal(err)
	}
	prof := &pin.Profile{Total: 1, Counts: []uint64{0}}
	// Build a fake single-instruction profile over the real program: find
	// any dest-bearing instruction and give it one execution.
	prof.Counts = make([]uint64, len(prog.Instrs))
	for i, in := range prog.Instrs {
		if in.Info().Dest != isa.DestNone {
			prof.Counts[i] = 1
			break
		}
	}
	rng := stats.NewRNG(4)
	popcount := func(x uint64) int {
		n := 0
		for ; x != 0; x &= x - 1 {
			n++
		}
		return n
	}
	for i := 0; i < 200; i++ {
		p, err := SamplePlanModel(prog, prof, rng, SingleBit)
		if err != nil {
			t.Fatal(err)
		}
		if popcount(p.Mask) != 1 {
			t.Fatalf("single-bit mask %#x", p.Mask)
		}
		p, err = SamplePlanModel(prog, prof, rng, DoubleBit)
		if err != nil {
			t.Fatal(err)
		}
		if popcount(p.Mask) != 2 {
			t.Fatalf("double-bit mask %#x", p.Mask)
		}
		p, err = SamplePlanModel(prog, prof, rng, ByteBurst)
		if err != nil {
			t.Fatal(err)
		}
		if popcount(p.Mask) != 8 || p.Mask%0xFF != 0 {
			t.Fatalf("byte-burst mask %#x", p.Mask)
		}
	}
}

func TestFaultModelCampaign(t *testing.T) {
	a := testApp(t)
	single := &Campaign{App: a, Mode: LetGoE, N: 150, Seed: 8, Model: SingleBit}
	burst := &Campaign{App: a, Mode: LetGoE, N: 150, Seed: 8, Model: ByteBurst}
	rs, err := single.Run()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := burst.Run()
	if err != nil {
		t.Fatal(err)
	}
	// A byte burst is strictly more corruption than one of its bits, so
	// it should not produce fewer visible outcomes (crash or detected or
	// SDC) than the single-bit model on the same seeds.
	visible := func(r *Result) int {
		return r.Counts.N - r.Counts.By[outcome.Benign] - r.Counts.By[outcome.CBenign]
	}
	if visible(rb) < visible(rs)-15 {
		t.Errorf("burst visible outcomes %d << single-bit %d", visible(rb), visible(rs))
	}
	if rb.Counts.N != 150 || rs.Counts.N != 150 {
		t.Error("campaign incomplete")
	}
}

func TestFaultModelStrings(t *testing.T) {
	if SingleBit.String() != "single-bit" || DoubleBit.String() != "double-bit" || ByteBurst.String() != "byte-burst" {
		t.Error("fault model names wrong")
	}
}

func TestCrashLatencyObservation(t *testing.T) {
	// The paper's observation 3: crash-causing errors crash within a
	// small number of dynamic instructions. Median latency must be tiny
	// compared with the app's run length.
	a := testApp(t)
	c := &Campaign{App: a, Mode: NoLetGo, N: 200, Seed: 31}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CrashLatencies) == 0 {
		t.Fatal("no crash latencies recorded")
	}
	if len(r.CrashLatencies) != r.Counts.CrashTotal() {
		t.Errorf("latencies %d != crashes %d", len(r.CrashLatencies), r.Counts.CrashTotal())
	}
	med := r.MedianCrashLatency()
	t.Logf("median crash latency: %d instructions (golden run %d)", med, r.GoldenRetired)
	if med == 0 || med > r.GoldenRetired/100 {
		t.Errorf("median latency %d not small relative to run length %d", med, r.GoldenRetired)
	}
	// Empty campaign result: median 0.
	if (&Result{}).MedianCrashLatency() != 0 {
		t.Error("empty median not 0")
	}
}

func TestAMGResilienceUnderLetGo(t *testing.T) {
	// The extension app reproducing Casas et al.: with convergence-based
	// termination, continued executions overwhelmingly end correct —
	// C-SDC stays near zero because surviving perturbations converge away.
	c := &Campaign{App: apps.AMG, Mode: LetGoE, N: 150, Seed: 17}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Counts.CrashTotal() == 0 {
		t.Fatal("no crashes to elide")
	}
	m := r.Metrics
	t.Logf("AMG: crash %.0f%%, continuability %.2f, correct %.2f, detected %.2f, sdc %.2f",
		100*r.PCrash, m.Continuability, m.ContinuedCorrect, m.ContinuedDetected, m.ContinuedSDC)
	if m.Continuability < 0.5 {
		t.Errorf("continuability %.2f too low", m.Continuability)
	}
	if m.ContinuedSDC > 0.10 {
		t.Errorf("AMG continued-SDC %.2f should be near zero (errors converge away)", m.ContinuedSDC)
	}
}

func TestRealAppCampaignMetricBounds(t *testing.T) {
	// Folded from the old gap-scratch exploration: a real benchmark app
	// under both LetGo modes must land in the paper's plausible ranges
	// and satisfy the Section-5.3 metric identity.
	a, ok := apps.ByName("CLAMR")
	if !ok {
		t.Fatal("no CLAMR app")
	}
	for _, mode := range []Mode{LetGoB, LetGoE} {
		c := &Campaign{App: a, Mode: mode, N: 120, Seed: 42}
		r, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Counts.N != 120 {
			t.Fatalf("%v: N = %d", mode, r.Counts.N)
		}
		if r.PCrash <= 0 || r.PCrash >= 1 {
			t.Errorf("%v: PCrash = %v outside (0,1)", mode, r.PCrash)
		}
		m := r.Metrics
		if m.Continuability <= 0 || m.Continuability > 1 {
			t.Errorf("%v: continuability = %v outside (0,1]", mode, m.Continuability)
		}
		sum := m.ContinuedCorrect + m.ContinuedDetected + m.ContinuedSDC
		if math.Abs(sum-m.Continuability) > 1e-9 {
			t.Errorf("%v: metric identity violated: %v != %v", mode, sum, m.Continuability)
		}
	}
}

// recordingObserver counts callbacks for observer tests.
type recordingObserver struct {
	phases   []string
	planned  atomic.Int64
	executed atomic.Int64
	done     atomic.Int64
	failed   atomic.Int64

	mu         sync.Mutex
	failPhase  string
	failErr    error
	lastResult *Result
}

func (o *recordingObserver) Phase(phase string) { o.phases = append(o.phases, phase) }
func (o *recordingObserver) Planned(int, Plan)  { o.planned.Add(1) }
func (o *recordingObserver) Executed(Execution) { o.executed.Add(1) }
func (o *recordingObserver) Done(res *Result) {
	o.done.Add(1)
	o.mu.Lock()
	o.lastResult = res
	o.mu.Unlock()
}
func (o *recordingObserver) Failed(phase string, err error) {
	o.failed.Add(1)
	o.mu.Lock()
	o.failPhase, o.failErr = phase, err
	o.mu.Unlock()
}

func TestCampaignObserverDeterminism(t *testing.T) {
	// A campaign with the full observability stack attached (registry,
	// JSONL emitter, progress, observer) must produce exactly the same
	// result as a bare campaign with the same seed — observers are passive.
	a := testApp(t)
	bare := &Campaign{App: a, Mode: LetGoE, N: 60, Seed: 99, Workers: 2}
	r1, err := bare.Run()
	if err != nil {
		t.Fatal(err)
	}

	var events bytes.Buffer
	hub := &obs.Hub{Reg: obs.NewRegistry(), Em: obs.NewEmitter(&events), Status: obs.NewCampaignStatus(obs.NewProgress(io.Discard, 0))}
	observed := &Campaign{App: a, Mode: LetGoE, N: 60, Seed: 99, Workers: 2, Obs: hub}
	r2, err := observed.Run()
	if err != nil {
		t.Fatal(err)
	}

	if r1.Counts != r2.Counts {
		t.Errorf("counts differ with observer:\n%+v\n%+v", r1.Counts, r2.Counts)
	}
	if r1.PCrash != r2.PCrash {
		t.Errorf("PCrash differs: %v vs %v", r1.PCrash, r2.PCrash)
	}
	if len(r1.CrashLatencies) != len(r2.CrashLatencies) {
		t.Errorf("latency count differs: %d vs %d", len(r1.CrashLatencies), len(r2.CrashLatencies))
	} else {
		for i := range r1.CrashLatencies {
			if r1.CrashLatencies[i] != r2.CrashLatencies[i] {
				t.Fatalf("latency[%d] differs: %d vs %d", i, r1.CrashLatencies[i], r2.CrashLatencies[i])
			}
		}
	}

	// Every injection produced at least an executed event; every event
	// line parses as a sequenced envelope.
	var executed int
	sc := bufio.NewScanner(&events)
	seq := uint64(0)
	for sc.Scan() {
		var env struct {
			Seq  uint64          `json:"seq"`
			Type string          `json:"type"`
			Ev   json.RawMessage `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		seq++
		if env.Seq != seq {
			t.Fatalf("seq gap: got %d want %d", env.Seq, seq)
		}
		if env.Type == "injection_executed" {
			executed++
		}
	}
	if executed != 60 {
		t.Errorf("injection_executed events = %d, want 60", executed)
	}
	// The trap-by-signal and per-class injection counters made it into
	// the registry.
	snap := hub.Reg.Snapshot()
	var total uint64
	for _, c := range snap.Counters {
		if c.Name == "letgo_injections_total" {
			total += c.Value
		}
	}
	if total != 60 {
		t.Errorf("letgo_injections_total sums to %d, want 60", total)
	}
}

func TestCampaignObserverCallbacks(t *testing.T) {
	a := testApp(t)
	rec := &recordingObserver{}
	c := &Campaign{App: a, Mode: LetGoE, N: 20, Seed: 5, Workers: 1, Observer: rec}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{PhaseCompile, PhaseGolden, PhaseProfile, PhasePlan, PhaseInject}
	if len(rec.phases) != len(want) {
		t.Fatalf("phases = %v", rec.phases)
	}
	for i, p := range want {
		if rec.phases[i] != p {
			t.Errorf("phase[%d] = %q, want %q", i, rec.phases[i], p)
		}
	}
	if rec.planned.Load() != 20 || rec.executed.Load() != 20 || rec.done.Load() != 1 {
		t.Errorf("planned=%d executed=%d done=%d", rec.planned.Load(), rec.executed.Load(), rec.done.Load())
	}
}

func TestCampaignWorkerEarlyStop(t *testing.T) {
	// When one worker hits an error the others must stop early instead of
	// burning through their remaining injections.
	base := testApp(t)
	var accepts atomic.Int64
	broken := &apps.App{
		Name:      base.Name,
		Domain:    base.Domain,
		Iterative: base.Iterative,
		Tolerance: base.Tolerance,
		Source:    base.Source,
		Accept: func(m *vm.Machine) (bool, error) {
			// The first call is the golden run; every later (injected)
			// call fails.
			if accepts.Add(1) == 1 {
				return base.Accept(m)
			}
			return false, errTestAccept
		},
		Output: base.Output,
	}
	rec := &recordingObserver{}
	c := &Campaign{App: broken, Mode: LetGoE, N: 400, Seed: 9, Workers: 2, Observer: rec}
	_, err := c.Run()
	if err == nil {
		t.Fatal("campaign swallowed the worker error")
	}
	if got := rec.executed.Load(); got >= 200 {
		t.Errorf("workers executed %d injections after the first error; early stop not engaged", got)
	}
	// The failure terminated the observer stream: exactly one Failed, no
	// Done, and the phase names where the campaign died.
	if rec.failed.Load() != 1 || rec.done.Load() != 0 {
		t.Errorf("failed=%d done=%d, want exactly one Failed and no Done", rec.failed.Load(), rec.done.Load())
	}
	if rec.failPhase != PhaseInject || !errors.Is(rec.failErr, errTestAccept) {
		t.Errorf("Failed(%q, %v), want phase %q wrapping errTestAccept", rec.failPhase, rec.failErr, PhaseInject)
	}
}

var errTestAccept = fmt.Errorf("synthetic acceptance failure")
