package inject

import (
	"context"
	"fmt"
	"time"

	"github.com/letgo-hpc/letgo/internal/analysis"
	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/core"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/outcome"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/resilience"
	"github.com/letgo-hpc/letgo/internal/stats"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// The campaign is an explicit four-stage pipeline (docs/FABRIC.md):
//
//	Plan    (plan.go)    compile + analysis + golden + profile + sampling;
//	                     pure and deterministic for a fixed configuration
//	Shard   (shard.go)   deterministic partition of the planned
//	                     injections into i/n work units
//	Execute (execute.go) per-unit runner over the fork/rerun engines,
//	                     journaling under a shard-stamped writer identity
//	Merge   (merge.go)   combine any set of shard journals and render the
//	                     final result, byte-identical to a single-process
//	                     run
//
// Campaign.Run remains the single-process facade: Plan, Shard (the whole
// campaign as one unit), Execute.

// Engine selects the execution substrate for the campaign's injected
// runs. Both engines produce byte-identical results for a fixed seed; the
// fork engine is simply faster, because it stops re-running the program
// from PC 0 for every injection.
type Engine uint8

// Engines. The zero value is the fork-replay engine.
const (
	// EngineFork records the golden execution once with COW waypoint
	// snapshots and positions every injected run by forking the nearest
	// waypoint and replaying only the delta — O(golden + N*K/2) prefix
	// work instead of O(N * prefix).
	EngineFork Engine = iota
	// EngineRerun is the classic substrate: every injection re-executes
	// the program from PC 0 to its site with a breakpoint ignore count.
	EngineRerun
)

func (e Engine) String() string {
	switch e {
	case EngineFork:
		return "fork"
	case EngineRerun:
		return "rerun"
	}
	return fmt.Sprintf("engine?%d", e)
}

// ParseEngine parses a -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "fork", "":
		return EngineFork, nil
	case "rerun":
		return EngineRerun, nil
	}
	return 0, fmt.Errorf("inject: unknown engine %q (want fork or rerun)", s)
}

// Campaign phases, in execution order, as reported to the hub and an
// Observer.
const (
	PhaseCompile = "compile"
	PhaseGolden  = "golden"
	PhaseProfile = "profile"
	PhasePlan    = "plan"
	PhaseInject  = "inject"
)

// Execution is one classified injection: its journal record and the
// campaign lane that ran it. The record is what the journal appends and a
// fabric worker ships; the whole value is what an Observer receives and
// the injection_executed event carries. A journal-restored injection has
// Worker 0.
type Execution struct {
	resilience.Record
	Worker int `json:"worker"`
}

func (Execution) EventType() string { return "injection_executed" }

// Observer is a passive in-process hook on the campaign lifecycle: phase
// boundaries, each sampled plan, each classified injection, and the
// terminal result. Exactly one of Done or Failed ends every campaign.
// Telemetry does not go through it — the campaign writes its metrics,
// events, /status and progress to Obs itself. Implementations must be
// safe for concurrent use — Executed is called from the campaign's
// worker goroutines. Campaign results are identical with or without one
// attached.
type Observer interface {
	Phase(phase string)
	Planned(index int, plan Plan)
	Executed(e Execution)
	Done(res *Result)
	// Failed reports the campaign aborting with err while in the named
	// phase ("" if it never reached the compile phase).
	Failed(phase string, err error)
}

// Campaign is a fault-injection campaign against one benchmark app: N
// independent single-bit-flip injections, each in a fresh machine,
// classified against the app's acceptance check and golden output.
type Campaign struct {
	App  *apps.App
	Mode Mode
	N    int
	Seed uint64
	// Workers bounds the parallel injection workers; 0 means GOMAXPROCS.
	Workers int
	// Opts overrides the LetGo options derived from Mode (for ablations:
	// custom fill values, disabled heuristics, retry budgets...). Ignored
	// for NoLetGo.
	Opts *core.Options
	// Model is the corruption pattern; the zero value is the paper's
	// single-bit-flip model.
	Model FaultModel
	// Observer, when non-nil, receives lifecycle callbacks (phases, plans,
	// per-injection outcomes, the terminal result or failure). Purely
	// observational.
	Observer Observer
	// Obs, when non-nil, receives the campaign's telemetry — metrics, the
	// event stream with its close record, /status and the progress line —
	// and is threaded into the core and vm layers of every injected run
	// (trap counts by signal, heuristic applications, retired
	// instructions). Nil disables instrumentation.
	Obs *obs.Hub
	// Engine selects the execution substrate; the zero value is the
	// fork-replay engine (EngineFork).
	Engine Engine

	// ShardSpec, when non-zero, restricts Run to one deterministic i/n
	// slice of the planned injections (see Shard): the process plans the
	// whole campaign, executes only its own work unit, and journals it
	// under the shard's writer identity. A later Merge over all shard
	// journals reconstructs the full campaign byte-identically. The zero
	// value runs the whole campaign.
	ShardSpec ShardSpec

	// Journal, when non-nil, persists every classified injection
	// (chunked, appended and fsynced) and seeds the run with
	// previously completed work: injections already journaled under this
	// campaign's key are restored instead of re-executed. Because plans
	// are seed-derived and classification is engine- and scheduling-
	// independent, a killed-and-resumed campaign renders byte-identical
	// tables to an uninterrupted one.
	Journal *resilience.Journal
	// Watchdog bounds each injection's wall-clock time. When it expires
	// the injection is quarantined as C-Hang and the campaign moves on
	// instead of stalling the worker pool (e.g. on a repair-induced
	// livelock still inside the retired-instruction budget). 0 disables
	// the watchdog. Quarantine outcomes are wall-clock-dependent: leave
	// the watchdog off when byte-reproducibility matters more than
	// liveness.
	Watchdog time.Duration

	// beforeInjection, when non-nil, runs inside the supervised worker
	// body just before plan i executes. It exists so tests can inject
	// harness faults (panics, stalls) at precise points.
	beforeInjection func(i int)
}

// EngineStats describes the execution-substrate work of one campaign.
// It is diagnostic only: report tables and outcome classifications never
// depend on it, and it is all zeros for the rerun engine (which has no
// waypoints, forks nothing, and saves nothing) and for merged results
// (which execute nothing). Quarantined injections drop their step's
// deltas, so stats may undercount after a quarantine. The golden
// recording's own forks and pages are charged to the first unit executed
// on a plan, so the units of one PlannedCampaign sum to one recording.
type EngineStats struct {
	Engine    string // "fork", "rerun" or "merge"
	Waypoints int    // waypoints recorded during the golden run
	Forks     uint64 // machine forks (waypoints + positioning + per-run)
	// PagesCopied counts COW page faults across the golden recording and
	// every injected run — the engine's total memory-copy cost.
	PagesCopied uint64
	// InstrsReplayed counts clean prefix instructions the schedulers'
	// replay machines actually re-executed to position runs.
	InstrsReplayed uint64
	// InstrsSaved counts prefix instructions the rerun engine would have
	// executed but the fork engine did not.
	InstrsSaved uint64
	// Converged counts injected runs cut short at a waypoint where their
	// state was bit-identical to the golden run's, and InstrsElided the
	// golden-suffix instructions those runs did not execute. Such a run
	// still reports the golden run's Retired, so Σ Retired over a
	// campaign's injections exceeds the instructions executed by exactly
	// InstrsElided.
	Converged    uint64
	InstrsElided uint64
}

// Result summarizes a campaign.
type Result struct {
	App           string
	Mode          Mode
	N             int
	Counts        outcome.Counts
	Metrics       outcome.Metrics
	GoldenRetired uint64
	// PCrash is the crash-branch fraction among all injections — the
	// paper's "56% of faults lead to crashes" statistic and the model's
	// P_crash input.
	PCrash float64
	// CrashLatencies holds, for every run whose fault crashed (or whose
	// crash LetGo intercepted), the dynamic-instruction distance from
	// injection to the first crash signal — the paper's observation 3.
	CrashLatencies []uint64
	// LiveDest and DeadDest split Counts by the static liveness of the
	// corrupted destination register at the injection site, correlating
	// the liveness analysis with Masked/SDC rates (Section 6's
	// "zero-filling is usually benign" argument, quantified).
	LiveDest, DeadDest outcome.Counts
	// SafeSite and UnsafeSite split Counts by whether the injection hit a
	// repair-safe site (the memory-dependency analysis certifies its
	// corruption cannot reach the acceptance check). Both are zero when
	// the app declares no acceptance globals.
	SafeSite, UnsafeSite outcome.Counts
	// DerivedBytes and FullBytes are the app's derived minimal checkpoint
	// size and its whole data address space; AnalysisRegions and
	// AnalysisLiveRegions count the region partition behind them. All
	// zero when the app declares no acceptance globals.
	DerivedBytes, FullBytes              uint64
	AnalysisRegions, AnalysisLiveRegions int
	// EngineStats reports the substrate's work (forks, pages copied,
	// instructions saved). Diagnostic only — excluded from report tables.
	EngineStats EngineStats

	// Shard is the executed work unit's identity ("2/3"), or "" for
	// whole-campaign (and merged) results.
	Shard string
	// Planned counts the injections this run was responsible for: the
	// work unit's size for a shard, N otherwise.
	Planned int
	// Completed counts classified injections, including journal-restored
	// ones; it equals Planned unless Interrupted.
	Completed int
	// Resumed counts injections restored from the journal instead of
	// re-executed.
	Resumed int
	// Interrupted reports that the run classified fewer injections than
	// it was responsible for (cancelled mid-flight, or a merge over
	// incomplete shard journals). Counts then covers only the Completed
	// injections, and the journal (if any) holds exactly the state a
	// resumed run needs.
	Interrupted bool
}

// MaskedFrac returns the fraction of runs in c that were architecturally
// masked: the program finished with golden-matching output, with or
// without LetGo's help (Benign + C-Benign).
func MaskedFrac(c *outcome.Counts) float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.By[outcome.Benign]+c.By[outcome.CBenign]) / float64(c.N)
}

// SDCFrac returns the fraction of runs in c that ended in silent data
// corruption, with or without LetGo's involvement (SDC + C-SDC).
func SDCFrac(c *outcome.Counts) float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.By[outcome.SDC]+c.By[outcome.CSDC]) / float64(c.N)
}

// MedianCrashLatency returns the median injection-to-crash distance in
// dynamic instructions (0 when no crashes were observed).
func (r *Result) MedianCrashLatency() uint64 {
	return stats.MedianUint64(r.CrashLatencies)
}

// phase reports a phase boundary to the observer, the event stream and
// /status.
func (c *Campaign) phase(name string) {
	if c.Observer != nil {
		c.Observer.Phase(name)
	}
	if c.Obs != nil {
		c.Obs.Emit(obs.PhaseEvent{App: c.App.Name, Phase: name})
		c.Obs.Status.SetPhase(name)
	}
}

// done ends a campaign that produced res: the observer's Done, then the
// campaign gauges, every class of letgo_injections_total (zeros
// included), the close record and the live tally, which ends its
// progress line. A shard or fabric unit's res covers only that unit.
func (c *Campaign) done(res *Result) {
	if c.Observer != nil {
		c.Observer.Done(res)
	}
	if c.Obs == nil {
		return
	}
	app := c.App.Name
	c.Obs.Gauge("letgo_campaign_pcrash", "app", app).Set(res.PCrash)
	c.Obs.Gauge("letgo_campaign_continuability", "app", app).Set(res.Metrics.Continuability)
	c.Obs.Gauge("letgo_campaign_median_crash_latency_instructions", "app", app).
		Set(float64(stats.MedianUint64(res.CrashLatencies)))
	for _, cl := range outcome.Classes() {
		c.Obs.Counter("letgo_injections_total", "app", app, "class", cl.String()).Add(0)
	}
	c.Obs.Emit(obs.CampaignDoneEvent{
		App: app, N: res.N, Completed: res.Completed,
		Resumed: res.Resumed, Interrupted: res.Interrupted,
	})
	c.Obs.Status.Done(res.Interrupted)
}

// failed ends a campaign that aborted with err while in the named phase:
// the observer's Failed, then the close record and the live tally.
func (c *Campaign) failed(phase string, err error) {
	if c.Observer != nil {
		c.Observer.Failed(phase, err)
	}
	if c.Obs == nil || c.App == nil {
		return
	}
	c.Obs.Emit(obs.CampaignFailedEvent{App: c.App.Name, Phase: phase, Error: err.Error()})
	c.Obs.Status.Failed()
}

// journalKey identifies this campaign's records inside a resume journal.
// Engine and worker count are deliberately excluded: results are
// independent of both, so a campaign may resume on a different substrate
// — and shards running different engines still merge byte-identically.
func (c *Campaign) journalKey() resilience.Key {
	return resilience.Key{
		App: c.App.Name, Mode: c.Mode.String(), N: c.N,
		Seed: c.Seed, Model: c.Model.String(),
	}
}

// Run executes the campaign to completion (no cancellation, no deadline).
// It is deterministic for a fixed seed and N, regardless of worker count
// and of any attached Observer or Obs sinks.
func (c *Campaign) Run() (*Result, error) {
	return c.RunContext(context.Background())
}

// RunContext executes the campaign under a context, as a facade over the
// pipeline stages: Plan, Shard (the whole campaign unless ShardSpec says
// otherwise), Execute. Cancellation is graceful: workers finish their
// in-flight injections, the journal is flushed, and the partial result
// is aggregated and returned with Interrupted set (nil error), so
// callers can render what completed and resume the rest later. A context
// cancelled before the injection phase returns ctx's error instead —
// there is nothing to render yet.
func (c *Campaign) RunContext(ctx context.Context) (*Result, error) {
	p, err := c.PlanContext(ctx)
	if err != nil {
		return nil, err
	}
	unit, err := p.Shard(c.ShardSpec)
	if err != nil {
		c.failed(PhasePlan, err)
		return nil, err
	}
	return c.ExecuteContext(ctx, p, unit)
}

// reportAnalysis mirrors the memory-dependency analysis results into the
// observability plane: letgo_analysis_* gauges for region counts and
// derived bytes, the same summary on /status, and per-pass durations into
// the span taxonomy.
func (c *Campaign) reportAnalysis(an *pin.Analysis, ss *analysis.StateSet) {
	if c.Obs == nil {
		return
	}
	app := c.App.Name
	c.Obs.Gauge("letgo_analysis_regions", "app", app).Set(float64(ss.RegionCount()))
	c.Obs.Gauge("letgo_analysis_live_regions", "app", app).Set(float64(ss.Live.Count()))
	c.Obs.Gauge("letgo_analysis_derived_checkpoint_bytes", "app", app).Set(float64(ss.DerivedBytes))
	c.Obs.Gauge("letgo_analysis_full_state_bytes", "app", app).Set(float64(ss.FullBytes))
	c.Obs.Gauge("letgo_analysis_repair_safe_sites", "app", app).Set(float64(ss.SafeSites))
	c.Obs.Gauge("letgo_analysis_dest_sites", "app", app).Set(float64(ss.DestSites))
	c.Obs.Status.SetAnalysis(ss.RegionCount(), ss.Live.Count(), ss.DerivedBytes, ss.FullBytes)
	// Pass durations land in the same histogram family as lifecycle
	// spans, named analysis/<pass>, so they render under -serve with
	// the rest of the span taxonomy.
	for _, st := range an.Static().PassStats() {
		name := "analysis/" + st.Name
		c.Obs.Histogram(obs.SpanHistogram, obs.SpanBuckets, "span", name).Observe(st.Seconds)
		c.Obs.Emit(obs.SpanEvent{Name: name, Attrs: map[string]string{"app": app}, Seconds: st.Seconds})
	}
}

// registerMetrics pre-registers the campaign's metric families so a dump
// always carries them, including the zero counts.
func (c *Campaign) registerMetrics() {
	if c.Obs == nil || c.Obs.Reg == nil {
		return
	}
	reg := c.Obs.Reg
	reg.Help("letgo_vm_traps_total", "Machine exceptions raised, by signal.")
	for _, sig := range []vm.Signal{vm.SIGSEGV, vm.SIGBUS, vm.SIGABRT, vm.SIGFPE} {
		reg.Counter("letgo_vm_traps_total", "signal", sig.String())
	}
	reg.Help("letgo_vm_retired_instructions_total", "Instructions retired across injected runs.")
	reg.Counter("letgo_vm_retired_instructions_total")
	reg.Help("letgo_engine_forks_total", "Machine forks taken by the execution engine (waypoints, positioning, per-run).")
	reg.Counter("letgo_engine_forks_total")
	reg.Help("letgo_engine_pages_copied_total", "COW pages copied across the golden recording and all injected runs.")
	reg.Counter("letgo_engine_pages_copied_total")
	reg.Help("letgo_engine_instructions_replayed_total", "Clean prefix instructions re-executed to position injected runs.")
	reg.Counter("letgo_engine_instructions_replayed_total")
	reg.Help("letgo_engine_instructions_saved_total", "Prefix instructions the fork engine avoided versus rerun.")
	reg.Counter("letgo_engine_instructions_saved_total")
	reg.Help("letgo_engine_converged_total", "Injected runs cut short where they reconverged with the golden run.")
	reg.Counter("letgo_engine_converged_total")
	reg.Help("letgo_engine_instructions_elided_total", "Golden-suffix instructions reconverged runs did not execute.")
	reg.Counter("letgo_engine_instructions_elided_total")
	reg.Help("letgo_resume_skipped_total", "Injections restored from the resume journal instead of re-executed.")
	reg.Counter("letgo_resume_skipped_total")
	reg.Help("letgo_resume_journaled_total", "Injections appended to the resume journal.")
	reg.Counter("letgo_resume_journaled_total")
	reg.Help("letgo_watchdog_timeouts_total", "Per-injection wall-clock watchdog expirations.")
	reg.Counter("letgo_watchdog_timeouts_total")
	reg.Help("letgo_quarantine_total", "Injections quarantined by the campaign supervisor, by reason.")
	for _, r := range []string{quarWatchdog, quarPanic} {
		reg.Counter("letgo_quarantine_total", "reason", r)
	}
	reg.Help("letgo_campaign_duration_seconds", "Wall-clock duration of the whole campaign, by app.")
	reg.Gauge("letgo_campaign_duration_seconds", "app", c.App.Name)
	reg.Help("letgo_shard_index", "1-based index of the work unit this process executes (absent when unsharded).")
	reg.Help("letgo_shard_count", "Total shard count of the campaign partition (absent when unsharded).")
	reg.Help("letgo_shard_planned_injections", "Injections the executing shard owns, by app.")
	reg.Help("letgo_analysis_regions", "Memory regions in the dependency analysis partition, by app.")
	reg.Help("letgo_analysis_live_regions", "Regions in the derived minimal checkpoint set, by app.")
	reg.Help("letgo_analysis_derived_checkpoint_bytes", "Derived minimal checkpoint size in bytes, by app.")
	reg.Help("letgo_analysis_full_state_bytes", "Whole data address space in bytes, by app.")
	reg.Help("letgo_analysis_repair_safe_sites", "Destination-writing instructions certified repair-safe, by app.")
	reg.Help("letgo_analysis_dest_sites", "Reachable destination-writing instructions, by app.")
	reg.Help("letgo_injections_total", "Classified injections, by app and Figure-4 class.")
	reg.Help("letgo_crash_latency_instructions", "Injection-to-crash distance in dynamic instructions.")
	reg.Help("letgo_worker_injections_total", "Injections executed, by campaign worker.")
	reg.Help("letgo_outcomes_total", "Classified injections by Figure-4 class, across all apps of the invocation.")
	for _, cl := range outcome.Classes() {
		// Materialize every class so dumps and /metrics carry explicit
		// zeros that line up with the rendered table columns.
		reg.Counter("letgo_outcomes_total", "class", cl.String())
	}
	reg.Help(obs.SpanHistogram, "Lifecycle span durations in seconds, by span name.")
}
