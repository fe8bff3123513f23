// Package inject implements the paper's fault-injection methodology
// (Section 5.4): a one-time profiling phase counts dynamic instructions,
// and each injection run places a breakpoint on a uniformly random dynamic
// instruction, single-steps it, and flips one random bit in its
// destination register "after the instruction completes". The run then
// continues — either bare (signals terminate the program) or under LetGo.
package inject

import (
	"fmt"
	"math"

	"github.com/letgo-hpc/letgo/internal/core"
	"github.com/letgo-hpc/letgo/internal/debug"
	"github.com/letgo-hpc/letgo/internal/engine"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/stats"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// Mode selects the supervision regime for injected runs.
type Mode uint8

// Supervision modes.
const (
	NoLetGo Mode = iota // crash-causing signals terminate the run
	LetGoB              // LetGo basic: PC advance only
	LetGoE              // LetGo enhanced: PC advance + Heuristics I & II
)

func (m Mode) String() string {
	switch m {
	case NoLetGo:
		return "none"
	case LetGoB:
		return "LetGo-B"
	case LetGoE:
		return "LetGo-E"
	}
	return fmt.Sprintf("mode?%d", m)
}

// ParseMode inverts Mode.String. It exists so a process can reconstruct
// a campaign from a journal key or a fabric campaign spec, where the
// mode travels as its rendered name.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{NoLetGo, LetGoB, LetGoE} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("inject: unknown mode %q", s)
}

// CoreOptions translates an injection mode into LetGo runner options.
func (m Mode) CoreOptions() core.Options {
	switch m {
	case LetGoB:
		return core.Options{Mode: core.ModeBasic}
	default:
		return core.Options{Mode: core.ModeEnhanced}
	}
}

// FaultModel selects the corruption pattern applied to the destination
// register. SingleBit is the paper's model (Section 5.1); the multi-bit
// models realize the Section-8 discussion of errors that escape ECC
// ("30% of memory errors manifested as multiple bit flips that cannot be
// corrected via ECC").
type FaultModel uint8

// Fault models.
const (
	SingleBit FaultModel = iota // one uniformly random bit (paper default)
	DoubleBit                   // two distinct random bits
	ByteBurst                   // 8 consecutive bits at a random byte lane
)

func (f FaultModel) String() string {
	switch f {
	case SingleBit:
		return "single-bit"
	case DoubleBit:
		return "double-bit"
	case ByteBurst:
		return "byte-burst"
	}
	return fmt.Sprintf("faultmodel?%d", f)
}

// ParseFaultModel inverts FaultModel.String (see ParseMode).
func ParseFaultModel(s string) (FaultModel, error) {
	for _, f := range []FaultModel{SingleBit, DoubleBit, ByteBurst} {
		if s == f.String() {
			return f, nil
		}
	}
	return 0, fmt.Errorf("inject: unknown fault model %q", s)
}

// mask draws a corruption mask for the model.
func (f FaultModel) mask(rng *stats.RNG) uint64 {
	switch f {
	case DoubleBit:
		a := rng.Uint64n(64)
		b := rng.Uint64n(64)
		for b == a {
			b = rng.Uint64n(64)
		}
		return 1<<a | 1<<b
	case ByteBurst:
		return uint64(0xFF) << (8 * rng.Uint64n(8))
	default:
		return 1 << rng.Uint64n(64)
	}
}

// Plan is one injection: XOR Mask into the destination register of the
// Instance-th execution of the static instruction at Addr.
type Plan struct {
	Site pin.Site
	Mask uint64
}

// SamplePlan draws a uniformly random dynamic instruction that has a
// destination register (the paper's fault model targets the destination
// register of computational instructions) and a single-bit mask.
func SamplePlan(prog *isa.Program, prof *pin.Profile, rng *stats.RNG) (Plan, error) {
	return SamplePlanModel(prog, prof, rng, SingleBit)
}

// SamplePlanModel is SamplePlan under an explicit fault model.
func SamplePlanModel(prog *isa.Program, prof *pin.Profile, rng *stats.RNG, model FaultModel) (Plan, error) {
	for attempt := 0; attempt < 10_000; attempt++ {
		dyn := rng.Uint64n(prof.Total)
		site, err := prof.SiteOf(dyn)
		if err != nil {
			return Plan{}, err
		}
		in, ok := prog.InstrAt(site.Addr)
		if !ok {
			return Plan{}, fmt.Errorf("inject: site %#x outside code", site.Addr)
		}
		if in.Info().Dest == isa.DestNone {
			continue // stores, branches, halts: no destination register
		}
		return Plan{Site: site, Mask: model.mask(rng)}, nil
	}
	return Plan{}, fmt.Errorf("inject: program has no instructions with destination registers")
}

// RunOutcome is the raw result of one injected run, before application-
// level output checking.
type RunOutcome struct {
	Plan     Plan
	Finished bool
	Hang     bool
	Repaired bool // LetGo elided at least one crash
	Signal   vm.Signal
	Retired  uint64
	Machine  *vm.Machine // final machine state (for output checks)
	// DestLive records whether the corrupted destination register was
	// statically live after the injection site (per the backward liveness
	// pass). A fault into a dead register can only propagate through a
	// later crash-signal path, so dead-destination injections should skew
	// toward Masked outcomes — the paper's Section-6 intuition for why
	// zero-filling is usually benign, made measurable.
	DestLive bool
	// CrashLatency is the number of instructions retired between the
	// injection and the first crash-causing signal (valid when the run
	// crashed, or when LetGo intercepted a crash). The paper's third
	// founding observation is that this latency is small.
	CrashLatency uint64
	HasLatency   bool

	// checks counts the golden-convergence comparisons the run made, and
	// elided the golden-suffix instructions it did not execute because one
	// matched (runOut); both are zero off the fork engine. A converged run
	// reports Retired and Machine as the golden run's.
	checks int
	elided uint64
}

// Execute performs one injection run: break at the planned site, step the
// instruction, flip the planned bit in its destination register, and
// continue to an end state under the requested mode.
func Execute(prog *isa.Program, an *pin.Analysis, plan Plan, mode Mode, budget uint64) (RunOutcome, error) {
	return executeHub(prog, an, plan, mode, nil, budget, nil)
}

// attachSupervision wires the requested supervision mode onto m: a bare
// debugger for NoLetGo, or a LetGo runner (whose debugger owns the
// Table-1 dispositions) otherwise. Optional observability sinks are
// threaded into the machine's trap hook and the runner.
func attachSupervision(m *vm.Machine, an *pin.Analysis, mode Mode, override *core.Options, hub *obs.Hub) (*debug.Debugger, *core.Runner) {
	if hub != nil {
		m.OnTrap = func(t *vm.Trap) {
			hub.Counter("letgo_vm_traps_total", "signal", t.Signal.String()).Inc()
		}
	}
	if mode == NoLetGo {
		return debug.New(m), nil
	}
	opts := mode.CoreOptions()
	if override != nil {
		opts = *override
	}
	opts.Obs = hub
	runner := core.Attach(m, an, opts)
	return runner.Dbg, runner
}

// executeHub is Execute with an optional LetGo option override (used by
// campaigns running heuristic ablations) and optional observability sinks
// threaded into the machine and the LetGo runner. It is the rerun path:
// the whole prefix up to the injection site is re-executed from PC 0.
func executeHub(prog *isa.Program, an *pin.Analysis, plan Plan, mode Mode, override *core.Options, budget uint64, hub *obs.Hub) (RunOutcome, error) {
	// Instance-1 below is the ignore count; instance 0 would wrap it and
	// run the whole program before reporting the site unreached.
	if plan.Site.Instance == 0 {
		return RunOutcome{}, fmt.Errorf("inject: plan %+v names instance 0 of its site (instances count from 1)", plan)
	}
	if _, ok := prog.InstrAt(plan.Site.Addr); !ok {
		return RunOutcome{}, fmt.Errorf("inject: plan %+v names a site outside code", plan)
	}
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		return RunOutcome{}, err
	}
	dbg, runner := attachSupervision(m, an, mode, override, hub)
	bp, err := dbg.SetBreakpoint(plan.Site.Addr, plan.Site.Instance-1)
	if err != nil {
		return RunOutcome{}, err
	}
	stop := dbg.Run(budget)
	if stop.Reason != debug.StopBreakpoint {
		return RunOutcome{}, fmt.Errorf("inject: never reached site %+v (stop %v at %d retired, %d of %d hits)",
			plan.Site, stop.Reason, m.Retired, bp.Hits, plan.Site.Instance)
	}
	dbg.ClearBreakpoint(plan.Site.Addr)
	return corruptAndContinue(prog, an, plan, dbg, runner, nil, budget, hub)
}

// executeAt is the fork-replay counterpart of executeHub: it runs one
// injection on a machine that a scheduler has already positioned at the
// injection site (PC at the site's address, about to execute it). gold is
// the recording m was forked from; the run stops early once it reconverges
// with it (runOut).
func executeAt(gold *engine.Golden, an *pin.Analysis, plan Plan, mode Mode, override *core.Options, budget uint64, hub *obs.Hub, m *vm.Machine) (RunOutcome, error) {
	if m.PC != plan.Site.Addr {
		return RunOutcome{}, fmt.Errorf("inject: fork positioned at pc %#x, want site %#x", m.PC, plan.Site.Addr)
	}
	dbg, runner := attachSupervision(m, an, mode, override, hub)
	return corruptAndContinue(gold.Prog, an, plan, dbg, runner, gold, budget, hub)
}

// runOut continues a corrupted run to its end state under the attached
// supervision and returns the stop that ended it.
//
// Given the golden recording the machine was forked from, it runs in
// waypoint-bounded segments: at a waypoint it compares the machine with
// the golden run's at the same retirement count (engine.ConvergedAt), and
// on equality stops there — the machine is deterministic, so the run would
// retire exactly the golden suffix and halt as the golden run did. The
// stop is then a synthesized halt and elided the suffix length. The first
// check is at the next waypoint; each miss doubles the distance to the
// following one, so a run that never converges pays a logarithmic number
// of comparisons. With a nil recording the loop is one unsegmented run.
func runOut(dbg *debug.Debugger, runner *core.Runner, gold *engine.Golden, budget uint64) (stop *debug.Stop, checks int, elided uint64) {
	advance := dbg.Continue
	if runner != nil {
		dbg.ResetResume()
		advance = runner.Advance
	}
	// A repair advances the PC without retiring the faulting instruction,
	// which takes the run out of Retired lockstep with the golden run for
	// good: it cannot converge any more, so it is no longer checked.
	lockstep := func() bool { return runner == nil || len(runner.Events()) == 0 }
	for gap := 1; ; gap *= 2 {
		at, ok := uint64(0), false
		if gold != nil && lockstep() {
			at, ok = gold.WaypointAfter(dbg.M.Retired, gap-1)
		}
		if !ok || at >= budget {
			return advance(budget), checks, 0
		}
		if stop := advance(at); stop.Reason != debug.StopBudget {
			return stop, checks, 0
		}
		if !lockstep() {
			continue // repaired inside this segment: the next pass runs the rest out
		}
		checks++
		if gold.ConvergedAt(dbg.M) {
			return &debug.Stop{Reason: debug.StopHalt}, checks, gold.Retired - at
		}
	}
}

// corruptAndContinue executes the target instruction, flips the planned
// bits in its destination register, and continues the run to an end state
// under the attached supervision (runOut). On entry the machine must be
// stopped exactly at the injection site.
func corruptAndContinue(prog *isa.Program, an *pin.Analysis, plan Plan, dbg *debug.Debugger, runner *core.Runner, gold *engine.Golden, budget uint64, hub *obs.Hub) (RunOutcome, error) {
	m := dbg.M
	// Execute the target instruction, then corrupt its destination.
	if s := dbg.StepInstr(); s != nil {
		return RunOutcome{}, fmt.Errorf("inject: target instruction itself stopped: %v", s.Reason)
	}
	in, _ := prog.InstrAt(plan.Site.Addr)
	flipDest(dbg, in, plan.Mask)
	injectedAt := m.Retired

	out := RunOutcome{Plan: plan}
	out.DestLive, _ = an.Static().DestLiveAt(plan.Site.Addr)
	var stop *debug.Stop
	stop, out.checks, out.elided = runOut(dbg, runner, gold, budget)
	if runner != nil {
		res := runner.Conclude(stop)
		out.Repaired = res.Repairs > 0
		out.Signal = res.Signal
		out.Finished = res.Outcome == core.RunCompleted
		out.Hang = res.Outcome == core.RunHang
		if len(res.Events) > 0 {
			out.CrashLatency = res.Events[0].Retired - injectedAt
			out.HasLatency = true
		} else if res.Outcome == core.RunCrashed {
			out.CrashLatency = m.Retired - injectedAt
			out.HasLatency = true
		}
	} else {
		switch stop.Reason {
		case debug.StopHalt:
			out.Finished = true
		case debug.StopBudget:
			out.Hang = true
		case debug.StopTerminated:
			out.Signal = stop.Signal
			out.CrashLatency = m.Retired - injectedAt
			out.HasLatency = true
		default:
			return RunOutcome{}, fmt.Errorf("inject: unexpected stop %v", stop.Reason)
		}
	}
	out.Machine = m
	if out.elided > 0 {
		// The run ends as the golden run did; report it as if it had.
		out.Machine = gold.ForkFinal()
	}
	out.Retired = out.Machine.Retired
	if hub != nil {
		hub.Counter("letgo_vm_retired_instructions_total").Add(out.Retired)
	}
	return out, nil
}

// flipDest XORs mask into the destination register of in.
func flipDest(d *debug.Debugger, in isa.Instruction, mask uint64) {
	switch in.Info().Dest {
	case isa.DestInt:
		d.SetIntReg(in.Rd, d.IntReg(in.Rd)^mask)
	case isa.DestFloat:
		bits := math.Float64bits(d.FloatReg(in.Rd)) ^ mask
		d.SetFloatReg(in.Rd, math.Float64frombits(bits))
	}
}
