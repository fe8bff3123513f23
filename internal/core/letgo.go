// Package core implements LetGo itself: the monitor that intercepts
// crash-causing signals and the modifier that repairs application state so
// execution can continue (Section 4 of the paper).
//
// The monitor re-defines the disposition of the crash-causing signals
// (Table 1: SIGSEGV, SIGBUS, SIGABRT — stop, do not pass to the program).
// When the application stops on one of them, the modifier advances the
// program counter past the faulting instruction and, in Enhanced mode,
// applies two heuristics:
//
//   - Heuristic I: an elided memory *load* leaves its destination register
//     stale; refill it with 0 (memory is mostly zero-initialized data).
//     An elided *store* needs nothing — the store simply did not happen.
//   - Heuristic II: if the stack or base pointer is corrupted, every
//     subsequent stack access faults again. Detect corruption with the
//     statically-derived frame bound sp <= bp <= sp+frame(+slack) and
//     repair the register the faulting instruction used by recomputing it
//     from the other one.
package core

import (
	"time"

	"github.com/letgo-hpc/letgo/internal/analysis"
	"github.com/letgo-hpc/letgo/internal/debug"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// Mode selects the repair level.
type Mode uint8

// Modes. Basic advances the PC only; Enhanced adds Heuristics I and II.
const (
	ModeBasic    Mode = iota // LetGo-B
	ModeEnhanced             // LetGo-E
)

func (m Mode) String() string {
	if m == ModeBasic {
		return "LetGo-B"
	}
	return "LetGo-E"
}

// DefaultSignals is the paper's Table 1 signal set.
func DefaultSignals() []vm.Signal {
	return []vm.Signal{vm.SIGSEGV, vm.SIGBUS, vm.SIGABRT}
}

// Options configures a LetGo runner. The zero value is LetGo-B with the
// Table-1 signals and the paper's give-up-on-second-crash policy.
type Options struct {
	Mode Mode
	// Signals lists the signals LetGo intercepts; nil means DefaultSignals.
	Signals []vm.Signal
	// MaxRepairs bounds how many crashes LetGo elides in one run; the
	// paper's LetGo gives up when the continued application crashes again,
	// i.e. MaxRepairs = 1. Zero means 1. (Ablation D4 raises it.)
	MaxRepairs int
	// FillInt/FillFloat are the Heuristic-I fill values (paper: zero).
	FillInt   uint64
	FillFloat float64
	// DisableH1/DisableH2 switch off individual heuristics (ablation D1/D2).
	DisableH1 bool
	DisableH2 bool
	// FrameSlack widens the Heuristic-II bound beyond the static frame
	// size to cover pushed registers and the return address. Zero means 16.
	FrameSlack uint64
	// Obs optionally records repair activity (intercepted signals,
	// heuristic applications, give-ups, repair durations) as metrics and
	// structured events. Nil disables instrumentation; observing a run
	// never changes its outcome.
	Obs *obs.Hub
}

func (o Options) maxRepairs() int {
	if o.MaxRepairs <= 0 {
		return 1
	}
	return o.MaxRepairs
}

func (o Options) frameSlack() uint64 {
	if o.FrameSlack == 0 {
		return 16
	}
	return o.FrameSlack
}

func (o Options) signals() []vm.Signal {
	if o.Signals == nil {
		return DefaultSignals()
	}
	return o.Signals
}

// Action flags recorded for one repair event.
type Action uint8

// Repair actions.
const (
	ActAdvancePC Action = 1 << iota
	ActFillIntDest
	ActFillFloatDest
	ActRepairSP
	ActRepairBP
)

// Event records one intercepted crash and what the modifier did.
type Event struct {
	Signal   vm.Signal
	PC       uint64
	Instr    isa.Instruction
	NewPC    uint64
	Actions  Action
	Duration time.Duration // time spent inside the modifier
	// Retired is the machine's retired-instruction count at interception,
	// used to measure crash latency from an injection point.
	Retired uint64
}

// OutcomeKind classifies how a run under LetGo ended.
type OutcomeKind uint8

// Run outcomes.
const (
	RunCompleted OutcomeKind = iota // program halted by itself
	RunCrashed                      // terminated by a signal (double crash, or a non-intercepted signal)
	RunHang                         // instruction budget exhausted
)

func (k OutcomeKind) String() string {
	switch k {
	case RunCompleted:
		return "completed"
	case RunCrashed:
		return "crashed"
	case RunHang:
		return "hang"
	}
	return "outcome?"
}

// Result summarizes a run under LetGo.
type Result struct {
	Outcome OutcomeKind
	Signal  vm.Signal // the killing signal for RunCrashed
	Repairs int       // crashes elided
	Events  []Event
	Retired uint64
}

// Runner supervises one application run: it owns the debugger attachment,
// the signal table and the repair loop.
type Runner struct {
	Dbg  *debug.Debugger
	An   *pin.Analysis
	Opts Options

	repairs int
	events  []Event
}

// heuristicNames are the modifier actions as metric/event labels.
var heuristicNames = []struct {
	flag Action
	name string
}{
	{ActFillIntDest, "h1_int_fill"},
	{ActFillFloatDest, "h1_float_fill"},
	{ActRepairSP, "h2_sp_repair"},
	{ActRepairBP, "h2_bp_repair"},
}

// Attach wires LetGo onto a machine: it launches the debugger attachment
// and installs the Table-1 dispositions (step 1 of the paper's Figure 3).
func Attach(m *vm.Machine, an *pin.Analysis, opts Options) *Runner {
	d := debug.New(m)
	for _, sig := range opts.signals() {
		d.Handle(sig, debug.Disposition{Stop: true, Pass: false})
	}
	if opts.Obs != nil && opts.Obs.Reg != nil {
		// Pre-register the repair metric families so a dump shows every
		// heuristic counter at zero even when a run never fires it.
		reg := opts.Obs.Reg
		reg.Help("letgo_heuristic_applications_total", "Modifier heuristic applications by kind.")
		for _, h := range heuristicNames {
			reg.Counter("letgo_heuristic_applications_total", "heuristic", h.name)
		}
		reg.Help("letgo_repairs_total", "Crashes elided by advancing the PC.")
		reg.Counter("letgo_repairs_total")
		reg.Help("letgo_signals_intercepted_total", "Crash-causing signals stopped by the monitor, by signal.")
		reg.Help("letgo_repair_giveups_total", "Repairs declined, by reason (repair_budget, unrepairable).")
		reg.Help("letgo_h2_frame_bound_total", "Heuristic II frame-bound lookups, by bound source.")
		for _, src := range []analysis.BoundSource{analysis.BoundDataflow, analysis.BoundPrologue, analysis.BoundFallback} {
			reg.Counter("letgo_h2_frame_bound_total", "source", src.String())
		}
	}
	return &Runner{Dbg: d, An: an, Opts: opts}
}

// Run executes the application under LetGo supervision until it halts,
// hangs, or dies of a crash LetGo would not or could not elide. The
// monitor is not a loop of its own: it is debug.Supervise — and under it
// vm.Drive — with intercept installed as the signal supervisor, so the
// supervised hot path is the same bare dispatch loop an unsupervised run
// uses.
func (r *Runner) Run(maxInstrs uint64) Result {
	r.Dbg.ResetResume()
	return r.Conclude(r.Advance(maxInstrs))
}

// Advance is Run's supervised execution without its verdict: it returns
// the stop that ended the run, or a StopBudget once the machine's absolute
// retired count reaches limit. Nothing is concluded or counted, so a
// caller may Advance a live run again to a later limit (the injector runs
// the post-injection tail in segments this way) and Conclude it once.
func (r *Runner) Advance(limit uint64) *debug.Stop {
	for {
		// LetGo sets no breakpoints itself; a client (fault injector)
		// may. Resume transparently.
		if stop := r.Dbg.Supervise(limit, r.intercept); stop.Reason != debug.StopBreakpoint {
			return stop
		}
	}
}

// Conclude turns the stop that ended a supervised run into its Result. A
// StopBudget is a hang; a StopSignal means intercept declined the repair,
// so the program dies of its crash just as on StopTerminated.
func (r *Runner) Conclude(stop *debug.Stop) Result {
	switch stop.Reason {
	case debug.StopHalt:
		return r.result(RunCompleted, vm.SIGNONE)
	case debug.StopBudget:
		return r.result(RunHang, vm.SIGNONE)
	}
	return r.result(RunCrashed, stop.Signal)
}

// intercept is the monitor decision (steps 2-4 of the paper's Figure 3),
// invoked by the dispatch core on every intercepted crash signal: true
// means the modifier repaired state and the run continues in place,
// false means LetGo stands aside and the program terminates.
func (r *Runner) intercept(t *vm.Trap) bool {
	r.Opts.Obs.Counter("letgo_signals_intercepted_total", "signal", t.Signal.String()).Inc()
	r.Opts.Obs.Emit(obs.SignalEvent{
		Signal: t.Signal.String(), PC: r.Dbg.PC(),
		Retired: r.Dbg.M.Retired, Intercepted: true,
	})
	if r.repairs >= r.Opts.maxRepairs() {
		// Second crash: LetGo does not intervene and the program
		// terminates (Section 4.1).
		r.giveUp("repair_budget", t)
		return false
	}
	if !r.repair(t) {
		r.giveUp("unrepairable", t)
		return false
	}
	return true
}

// giveUp records a declined repair into the optional sinks.
func (r *Runner) giveUp(reason string, t *vm.Trap) {
	r.Opts.Obs.Counter("letgo_repair_giveups_total", "reason", reason).Inc()
	r.Opts.Obs.Emit(obs.GiveUpEvent{Reason: reason, Signal: t.Signal.String(), PC: r.Dbg.PC()})
}

func (r *Runner) result(kind OutcomeKind, sig vm.Signal) Result {
	r.Opts.Obs.Counter("letgo_runs_total", "outcome", kind.String()).Inc()
	return Result{
		Outcome: kind,
		Signal:  sig,
		Repairs: r.repairs,
		Events:  r.events,
		Retired: r.Dbg.M.Retired,
	}
}

// repair is the modifier (step 4 of Figure 3). It returns false when the
// state cannot be adjusted (e.g. the PC itself is corrupted), in which
// case LetGo lets the application die.
func (r *Runner) repair(t *vm.Trap) bool {
	start := time.Now()
	ev := Event{Signal: t.Signal, PC: r.Dbg.PC(), Retired: r.Dbg.M.Retired}

	if t.Fetch {
		// The PC itself is invalid: there is no "next instruction" to
		// advance to. LetGo gives up.
		return false
	}
	in, ok := r.An.InstrAt(r.Dbg.PC())
	if !ok {
		return false
	}
	ev.Instr = in

	next, ok := r.An.NextPC(r.Dbg.PC())
	if !ok {
		return false
	}

	if r.Opts.Mode == ModeEnhanced {
		if !r.Opts.DisableH1 {
			r.heuristicI(in, &ev)
		}
		if !r.Opts.DisableH2 {
			r.heuristicII(in, &ev)
		}
	}

	r.Dbg.SetPC(next)
	ev.NewPC = next
	ev.Actions |= ActAdvancePC
	ev.Duration = time.Since(start)
	r.events = append(r.events, ev)
	r.repairs++
	r.instrumentRepair(ev)
	return true
}

// instrumentRepair records one successful repair into the optional sinks.
func (r *Runner) instrumentRepair(ev Event) {
	hub := r.Opts.Obs
	if hub == nil {
		return
	}
	hub.Counter("letgo_repairs_total").Inc()
	if r.repairs > 1 {
		hub.Counter("letgo_repair_retries_total").Inc()
	}
	hub.Histogram("letgo_repair_duration_seconds", obs.ExpBuckets(1e-7, 10, 8)).
		Observe(ev.Duration.Seconds())
	// Mirror the repair into the span taxonomy (it is already timed, so
	// record it directly instead of opening a second clock).
	hub.Histogram(obs.SpanHistogram, obs.SpanBuckets, "span", "repair").
		Observe(ev.Duration.Seconds())
	hub.Emit(obs.SpanEvent{
		Name:    "repair",
		Attrs:   map[string]string{"signal": ev.Signal.String()},
		Seconds: ev.Duration.Seconds(),
	})
	for _, h := range heuristicNames {
		if ev.Actions&h.flag != 0 {
			hub.Counter("letgo_heuristic_applications_total", "heuristic", h.name).Inc()
			hub.Emit(obs.HeuristicEvent{Heuristic: h.name, PC: ev.PC, NewPC: ev.NewPC})
		}
	}
}

// heuristicI refills the destination register of an elided load with the
// configured fill value (0 by default). Elided stores need no action.
func (r *Runner) heuristicI(in isa.Instruction, ev *Event) {
	info := in.Info()
	if !info.Load {
		return
	}
	switch info.Dest {
	case isa.DestInt:
		r.Dbg.SetIntReg(in.Rd, r.Opts.FillInt)
		ev.Actions |= ActFillIntDest
	case isa.DestFloat:
		r.Dbg.SetFloatReg(in.Rd, r.Opts.FillFloat)
		ev.Actions |= ActFillFloatDest
	}
}

// heuristicII checks the sp/bp frame bound and repairs the corrupted
// pointer. It only engages when the faulting instruction actually
// addresses memory through sp or bp (stack ops, or loads/stores based on
// sp/bp), matching the paper's "stops at an instruction that involves
// stack operation".
func (r *Runner) heuristicII(in isa.Instruction, ev *Event) {
	info := in.Info()
	usesSP := info.Stack
	usesBP := false
	if (info.Load || info.Store) && !info.Stack {
		switch in.Rs1 {
		case isa.SP:
			usesSP = true
		case isa.BP:
			usesBP = true
		}
	}
	if !usesSP && !usesBP {
		return
	}

	// The legitimate bp-sp gap at this PC: the exact per-PC stack-depth
	// bound when the dataflow reaches the instruction, else the prologue
	// frame size, else the named analysis.FallbackFrameBytes constant.
	frame, src := r.An.Static().FrameBoundAt(r.Dbg.PC())
	r.Opts.Obs.Counter("letgo_h2_frame_bound_total", "source", src.String()).Inc()
	bound := frame + r.Opts.frameSlack()

	sp := r.Dbg.IntReg(isa.SP)
	bp := r.Dbg.IntReg(isa.BP)
	if bp >= sp && bp-sp <= bound {
		return // range constraint holds; nothing to repair
	}

	// The bound is violated. Repair the register the faulting instruction
	// used, deriving it from the other (Section 4.2, detection+correction).
	// Plausibility: prefer to trust the register that still points into
	// the stack segment.
	spOK := r.inStack(sp)
	bpOK := r.inStack(bp)
	switch {
	case usesSP && bpOK:
		r.Dbg.SetIntReg(isa.SP, bp-frame)
		ev.Actions |= ActRepairSP
	case usesBP && spOK:
		r.Dbg.SetIntReg(isa.BP, sp+frame)
		ev.Actions |= ActRepairBP
	case usesSP && !bpOK && spOK:
		// sp looks fine but bp is wild: fix bp opportunistically so later
		// bp-relative accesses survive.
		r.Dbg.SetIntReg(isa.BP, sp+frame)
		ev.Actions |= ActRepairBP
	case usesBP && !spOK && bpOK:
		r.Dbg.SetIntReg(isa.SP, bp-frame)
		ev.Actions |= ActRepairSP
	default:
		// Both implausible: copy one over the other anyway, per the paper
		// ("one can be used to correct the error in the other one").
		if usesSP {
			r.Dbg.SetIntReg(isa.SP, bp-frame)
			ev.Actions |= ActRepairSP
		} else {
			r.Dbg.SetIntReg(isa.BP, sp+frame)
			ev.Actions |= ActRepairBP
		}
	}
}

// inStack reports whether addr lies inside the stack segment.
func (r *Runner) inStack(addr uint64) bool {
	s, ok := r.Dbg.M.Mem.SegmentAt(addr)
	return ok && s.Name == "stack"
}

// Events returns the repair log so far.
func (r *Runner) Events() []Event { return r.events }
