package inject

// Golden convergence (runOut): an injected run on the fork engine stops at
// the first checked waypoint where its state is bit-identical to the golden
// run's. These tests pin, on hand-written programs where the fate of the
// flipped bit is known, when that happens, when it must not, and that the
// outcome is the rerun engine's either way.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/debug"
	"github.com/letgo-hpc/letgo/internal/engine"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// convergeEvery is the waypoint spacing the tests record with: the loops
// below retire a few thousand instructions, so this gives a ladder of a few
// dozen rungs.
const convergeEvery = 64

// convergeApp wraps a hand-written program whose main sums a loop into
// `out` and stores the CYCLES count read after the loop into `ticks`.
func convergeApp(t *testing.T, name, body string) *apps.App {
	t.Helper()
	a := &apps.App{
		Name:   name,
		Domain: "test",
		Asm: `
			.entry _start
			.int arr 3 1 4 1 5 9 2 6
			.double out 0
			.int ticks 0
			_start:
			    call main
			    halt
			main:
			    push bp
			    mov bp, sp
			` + body + `
			.done:
			    li x8, out
			    fst f1, [x8+0]
			    cycles x9         ; the absolute retired count, long after any site
			    li x8, ticks
			    st x9, [x8+0]
			    mov sp, bp
			    pop bp
			    ret
		`,
		Accept: func(m *vm.Machine) (bool, error) { return true, nil },
		Output: func(m *vm.Machine) ([]float64, error) {
			out, err := m.ReadGlobalFloat("out", 0)
			if err != nil {
				return nil, err
			}
			ticks, err := m.ReadGlobalInt("ticks", 0)
			return []float64{out, float64(ticks)}, err
		},
	}
	if _, err := a.Compile(); err != nil {
		t.Fatal(err)
	}
	return a
}

// scratchLoop writes x7 every iteration and never reads it.
const scratchLoop = `
			    li x2, 0          ; i
			    li x3, 400        ; n
			    fli f1, 0
			.loop:
			    bge x2, x3, .done
			    mov x7, x2        ; scratch: rewritten every iteration, never read
			    i2f f2, x2
			    fadd f1, f1, f2
			    addi x2, x2, 1
			    jmp .loop
`

// parkedLoop pushes a constant into a stack slot nothing reads or rewrites
// and reuses the register at once.
const parkedLoop = `
			    li x5, 7
			    push x5           ; parked: the slot is dropped by "mov sp, bp", unread
			    li x5, 0
` + scratchLoop

// loadLoop forms an address and loads through it in the next instruction.
const loadLoop = `
			    li x1, arr
			    li x2, 0
			    li x3, 400
			    fli f1, 0
			.loop:
			    bge x2, x3, .done
			    andi x4, x2, 7
			    muli x4, x4, 8
			    add x5, x1, x4    ; the address: corrupt it and the load below faults
			    ld x6, [x5+0]
			    i2f f2, x6
			    fadd f1, f1, f2
			    addi x2, x2, 1
			    jmp .loop
`

// convergeCase is one program recorded on the fork engine.
type convergeCase struct {
	app  *apps.App
	prog *isa.Program
	an   *pin.Analysis
	gold *engine.Golden
}

func newConvergeCase(t *testing.T, name, body string) *convergeCase {
	t.Helper()
	app := convergeApp(t, name, body)
	prog, err := app.Compile()
	if err != nil {
		t.Fatal(err)
	}
	gold, err := engine.Record(prog, vm.Config{}, convergeEvery, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if gold.Every != convergeEvery || gold.Waypoints() < 16 {
		t.Fatalf("ladder of %d waypoints every %d; the test wants a fine one", gold.Waypoints(), gold.Every)
	}
	return &convergeCase{app: app, prog: prog, an: pin.Analyze(prog), gold: gold}
}

// addrOf returns the address of the one instruction match accepts.
func (c *convergeCase) addrOf(t *testing.T, match func(isa.Instruction) bool) uint64 {
	t.Helper()
	found := -1
	for i, in := range c.prog.Instrs {
		if match(in) {
			if found >= 0 {
				t.Fatalf("instructions %d and %d both match", found, i)
			}
			found = i
		}
	}
	if found < 0 {
		t.Fatal("no instruction matches")
	}
	return isa.CodeBase + uint64(found)*isa.InstrBytes
}

// when resolves a site to its dynamic index in the golden run.
func (c *convergeCase) when(t *testing.T, site pin.Site) uint64 {
	t.Helper()
	whens, err := c.gold.ResolveWhens([]pin.Site{site})
	if err != nil {
		t.Fatal(err)
	}
	return whens[0]
}

// siteWithRoom returns the first instance of the instruction at addr, from
// the 100th on, that retires at least room instructions before the next
// waypoint, together with that waypoint.
func (c *convergeCase) siteWithRoom(t *testing.T, addr, room uint64) (pin.Site, uint64) {
	t.Helper()
	for inst := uint64(100); inst < 200; inst++ {
		site := pin.Site{Addr: addr, Instance: inst}
		injectedAt := c.when(t, site) + 1
		if wp, ok := c.gold.WaypointAfter(injectedAt, 0); ok && wp-injectedAt >= room {
			return site, wp
		}
	}
	t.Fatal("no instance leaves room before its next waypoint")
	return pin.Site{}, 0
}

// inject runs one plan on both engines' paths — executeAt on a fork
// positioned the way forkOne positions it, executeHub from PC 0 — and
// checks the two outcomes and final machines are the same. It returns the
// fork engine's outcome.
func (c *convergeCase) inject(t *testing.T, mode Mode, plan Plan) RunOutcome {
	t.Helper()
	const budget = 1 << 20
	when := c.when(t, plan.Site)
	m, _ := c.gold.ForkAt(when)
	if stop := debug.New(m).RunToDynamic(when); stop != nil {
		t.Fatalf("positioning stopped: %v", stop.Reason)
	}
	fork, err := executeAt(c.gold, c.an, plan, mode, nil, budget, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := executeHub(c.prog, c.an, plan, mode, nil, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.checks != 0 || rerun.elided != 0 {
		t.Errorf("rerun engine made %d convergence checks, elided %d", rerun.checks, rerun.elided)
	}
	if !fork.Machine.SameState(rerun.Machine) {
		t.Errorf("final machines differ: fork retired %d pc %#x, rerun retired %d pc %#x",
			fork.Machine.Retired, fork.Machine.PC, rerun.Machine.Retired, rerun.Machine.PC)
	}
	f, r := fork, rerun
	f.Machine, r.Machine = nil, nil
	f.checks, f.elided = 0, 0
	if !reflect.DeepEqual(f, r) {
		t.Errorf("outcomes differ:\nfork  %+v\nrerun %+v", f, r)
	}
	return fork
}

func isScratchMov(in isa.Instruction) bool { return in.Op == isa.MOV && in.Rd == 7 }

// A flip into a register that is rewritten before the next waypoint is
// gone by the first check: the run stops there and reports the golden run.
func TestConvergeOverwrittenDestination(t *testing.T) {
	c := newConvergeCase(t, "CONVERGE-SCRATCH", scratchLoop)
	site, wp := c.siteWithRoom(t, c.addrOf(t, isScratchMov), 8)
	for _, mode := range []Mode{NoLetGo, LetGoE} {
		ro := c.inject(t, mode, Plan{Site: site, Mask: 1 << 40})
		if ro.checks != 1 || ro.elided != c.gold.Retired-wp {
			t.Errorf("%v: %d checks, %d elided; want 1 check at waypoint %d eliding %d",
				mode, ro.checks, ro.elided, wp, c.gold.Retired-wp)
		}
		if !ro.Finished || ro.Retired != c.gold.Retired {
			t.Errorf("%v: converged run reports finished=%v retired=%d, want the golden run's %d",
				mode, ro.Finished, ro.Retired, c.gold.Retired)
		}
	}
	// With the next waypoint closer than the rewrite, the first check
	// misses and the back-off skips one waypoint before the second.
	for inst := uint64(100); ; inst++ {
		tight := pin.Site{Addr: site.Addr, Instance: inst}
		injectedAt := c.when(t, tight) + 1
		if first, _ := c.gold.WaypointAfter(injectedAt, 0); first-injectedAt > 3 {
			continue
		}
		second, _ := c.gold.WaypointAfter(injectedAt, 2)
		ro := c.inject(t, LetGoE, Plan{Site: tight, Mask: 1 << 40})
		if ro.checks != 2 || ro.elided != c.gold.Retired-second {
			t.Errorf("tight site: %d checks, %d elided; want 2 checks, the second at %d eliding %d",
				ro.checks, ro.elided, second, c.gold.Retired-second)
		}
		break
	}
}

// A flipped value parked in a stack slot that is never read or rewritten
// leaves the registers golden and memory not: every check misses, the run
// executes to its own end, and the outcome is still the rerun engine's.
func TestConvergeParkedInStackSlot(t *testing.T) {
	c := newConvergeCase(t, "CONVERGE-PARKED", parkedLoop)
	site := pin.Site{Addr: c.addrOf(t, func(in isa.Instruction) bool {
		return in.Op == isa.LI && in.Rd == 5 && in.Imm == 7
	}), Instance: 1}
	ro := c.inject(t, LetGoE, Plan{Site: site, Mask: 1 << 3})
	if ro.elided != 0 {
		t.Fatalf("run converged (elided %d) with a corrupted stack slot", ro.elided)
	}
	// Checks at waypoints 1, 3, 7, 15, ... of the ladder above the site.
	above := 0
	for at, ok := c.gold.WaypointAfter(c.when(t, site)+1, 0); ok; at, ok = c.gold.WaypointAfter(at, 0) {
		above++
	}
	want := 0
	for nth := 1; nth <= above; nth = 2*nth + 1 {
		want++
	}
	if ro.checks != want || want < 4 {
		t.Errorf("%d checks with %d waypoints above the site, want %d (doubling back-off)", ro.checks, above, want)
	}
	if !ro.Finished || ro.Retired != c.gold.Retired {
		t.Errorf("finished=%v retired=%d, want a full run of %d", ro.Finished, ro.Retired, c.gold.Retired)
	}
}

// The program stores CYCLES after the loop, so the retired count is
// observable state. A converged run reports the golden ticks, which are
// the rerun's; a run whose flip shortens the loop is shifted in time for
// good, never converges, and reports the rerun's (different) ticks.
func TestConvergeCyclesReadAfterSite(t *testing.T) {
	c := newConvergeCase(t, "CONVERGE-CYCLES", scratchLoop)
	ticks := func(ro RunOutcome) float64 {
		out, err := c.app.Output(ro.Machine)
		if err != nil {
			t.Fatal(err)
		}
		return out[1]
	}
	golden := ticks(RunOutcome{Machine: c.gold.ForkFinal()})

	site, _ := c.siteWithRoom(t, c.addrOf(t, isScratchMov), 8)
	masked := c.inject(t, LetGoE, Plan{Site: site, Mask: 1 << 40})
	if masked.elided == 0 || ticks(masked) != golden {
		t.Errorf("masked flip: elided %d, ticks %v, want convergence onto the golden %v", masked.elided, ticks(masked), golden)
	}

	counter := pin.Site{Addr: c.addrOf(t, func(in isa.Instruction) bool {
		return in.Op == isa.ADDI && in.Rd == 2
	}), Instance: 100}
	shifted := c.inject(t, LetGoE, Plan{Site: counter, Mask: 1 << 5})
	if shifted.elided != 0 || !shifted.Finished || ticks(shifted) == golden {
		t.Errorf("loop-counter flip: elided %d, finished %v, ticks %v (golden %v); want a shorter run that never converges",
			shifted.elided, shifted.Finished, ticks(shifted), golden)
	}
}

// A repair advances the PC without retiring the faulting instruction: the
// run is out of Retired lockstep with the golden run and is not compared
// with it again, however many waypoints it still passes.
func TestConvergeNoChecksAfterRepair(t *testing.T) {
	c := newConvergeCase(t, "CONVERGE-REPAIR", loadLoop)
	addr := c.addrOf(t, func(in isa.Instruction) bool { return in.Op == isa.ADD && in.Rd == 5 })
	// The load faults on the instruction after the site: before any waypoint.
	site, wp := c.siteWithRoom(t, addr, 4)
	ro := c.inject(t, LetGoE, Plan{Site: site, Mask: 1 << 40})
	if !ro.Repaired || !ro.Finished || ro.CrashLatency != 0 {
		t.Fatalf("repaired=%v finished=%v latency=%d; want one immediate repair and a finished run", ro.Repaired, ro.Finished, ro.CrashLatency)
	}
	if passed := (ro.Retired - wp) / convergeEvery; passed < 8 {
		t.Fatalf("the repaired run passed only %d waypoints", passed)
	}
	if ro.checks != 0 || ro.elided != 0 {
		t.Errorf("%d convergence checks (elided %d) on a repaired run, want none", ro.checks, ro.elided)
	}
	// The same flip with no LetGo crashes at once: nothing to compare.
	if ro := c.inject(t, NoLetGo, Plan{Site: site, Mask: 1 << 40}); ro.Signal != vm.SIGSEGV || ro.checks != 0 {
		t.Errorf("unsupervised: signal %v, %d checks; want SIGSEGV before the first waypoint", ro.Signal, ro.checks)
	}
}

// Eight lanes converge on one recording at once: each classifies its run
// on a private fork of the sealed golden final machine (run under -race).
// Whether a run converges is a property of its plan, so the counts repeat
// at any lane count.
func TestConvergeManyLanesShareFinal(t *testing.T) {
	app, ok := apps.ByName("CLAMR")
	if !ok {
		t.Fatal("no CLAMR app")
	}
	const n = 160
	var ref *Result
	for _, workers := range []int{8, 1} {
		c := &Campaign{App: app, Mode: LetGoE, N: n, Seed: 2017, Workers: workers}
		r, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		s := r.EngineStats
		if s.Converged < n/8 || s.InstrsElided == 0 {
			t.Fatalf("W=%d: %d of %d runs converged, %d instructions elided", workers, s.Converged, n, s.InstrsElided)
		}
		if ref == nil {
			ref = r
			continue
		}
		if s.Converged != ref.EngineStats.Converged || s.InstrsElided != ref.EngineStats.InstrsElided {
			t.Errorf("W=%d converged %d / elided %d, W=8 converged %d / elided %d",
				workers, s.Converged, s.InstrsElided, ref.EngineStats.Converged, ref.EngineStats.InstrsElided)
		}
		if r.Counts != ref.Counts {
			t.Errorf("W=%d counts %+v, W=8 counts %+v", workers, r.Counts, ref.Counts)
		}
	}
}

// executionLog records every Execution by plan index.
type executionLog struct {
	mu   sync.Mutex
	byIx map[int]Execution
}

func (o *executionLog) Phase(string)         {}
func (o *executionLog) Planned(int, Plan)    {}
func (o *executionLog) Done(*Result)         {}
func (o *executionLog) Failed(string, error) {}
func (o *executionLog) Executed(e Execution) {
	e.Worker = 0 // lane assignment is the engine's business
	o.mu.Lock()
	o.byIx[e.Index] = e
	o.mu.Unlock()
}

// Short-circuited runs are reported as if they had executed to the end:
// every Execution and every counter outside the letgo_engine_* family
// reads the same on the fork engine, where a third of the runs converge,
// as on the rerun engine, where none may.
func TestConvergeKeepsEveryObservation(t *testing.T) {
	app, ok := apps.ByName("LULESH")
	if !ok {
		t.Fatal("no LULESH app")
	}
	const n = 60
	observe := func(e Engine) (map[string]uint64, map[int]Execution, EngineStats) {
		hub := &obs.Hub{Reg: obs.NewRegistry()}
		log := &executionLog{byIx: map[int]Execution{}}
		c := &Campaign{App: app, Mode: LetGoE, N: n, Seed: 7, Workers: 2, Engine: e, Obs: hub, Observer: log}
		r, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		var retired uint64
		for _, e := range log.byIx {
			retired += e.Retired
		}
		if got := hub.Counter("letgo_vm_retired_instructions_total").Value(); got != retired {
			t.Errorf("%v: letgo_vm_retired_instructions_total = %d, Σ Execution.Retired = %d", e, got, retired)
		}
		counters := map[string]uint64{}
		for _, cv := range hub.Reg.Snapshot().Counters {
			if !strings.HasPrefix(cv.Name, "letgo_engine_") {
				counters[fmt.Sprint(cv.Name, cv.Labels)] = cv.Value
			}
		}
		return counters, log.byIx, r.EngineStats
	}
	forkCounters, forkExecs, stats := observe(EngineFork)
	rerunCounters, rerunExecs, _ := observe(EngineRerun)
	if stats.Converged < n/6 {
		t.Fatalf("only %d of %d fork-engine runs converged", stats.Converged, n)
	}
	if !reflect.DeepEqual(forkCounters, rerunCounters) {
		t.Errorf("counters differ between engines:\nfork  %v\nrerun %v", forkCounters, rerunCounters)
	}
	if !reflect.DeepEqual(forkExecs, rerunExecs) {
		t.Errorf("executions differ between engines:\nfork  %v\nrerun %v", forkExecs, rerunExecs)
	}
}
