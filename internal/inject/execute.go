package inject

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/letgo-hpc/letgo/internal/debug"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/outcome"
	"github.com/letgo-hpc/letgo/internal/resilience"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// ExecuteContext is the pipeline's Execute stage: it runs exactly the
// injections the work unit owns on the campaign's engine, journaling
// each under the unit's shard-stamped writer identity, and aggregates
// them into a Result. For the whole-campaign unit this is the classic
// injection phase; for an i/n shard the Result covers only the shard's
// work (Planned = unit size) and the journal is the product a later
// Merge consumes.
//
// Journal-restored injections that belong to the unit are not
// re-executed, so a killed shard resumes exactly like a killed campaign.
// Records outside the unit (e.g. a merged journal fed back in) are
// ignored rather than counted, keeping shard results honest.
func (c *Campaign) ExecuteContext(ctx context.Context, p *PlannedCampaign, unit *WorkUnit) (res *Result, err error) {
	defer func() {
		if err != nil {
			// Whatever already completed is worth keeping for a resume,
			// and the event stream must end with a close record.
			c.Journal.Flush()
			c.failed(PhaseInject, err)
		}
	}()
	if p == nil || unit == nil {
		return nil, fmt.Errorf("inject: Execute needs a planned campaign and a work unit")
	}
	if key := c.journalKey(); key != p.Key || key != unit.Key {
		return nil, fmt.Errorf("inject: campaign %v does not match plan %v / unit %v", key, p.Key, unit.Key)
	}
	if len(p.Plans) != c.N {
		return nil, fmt.Errorf("inject: plan holds %d injections, campaign wants %d", len(p.Plans), c.N)
	}
	c.registerMetrics()
	c.reportShard(unit)
	if c.Journal != nil && c.Journal.Writer == "" {
		c.Journal.Writer = unit.Spec.String()
	}

	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, unit.Size()))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	c.phase(PhaseInject)
	if c.Obs != nil {
		c.Obs.Status.Execute(unit.Size())
	}
	// The inject span ends on every return, so the lanes' worker_chunk
	// spans always have an enclosing span in a trace.
	spInject := c.Obs.StartSpan("inject", "app", c.App.Name, "engine", c.Engine.String())
	results := make([]Execution, c.N)
	completed := make([]bool, c.N)
	resumed, err := c.restore(c.Journal, unit, results, completed)
	if err != nil {
		spInject.End()
		return nil, err
	}

	estats := EngineStats{Engine: c.Engine.String()}
	err = c.runLanes(ctx, p, unit.Indices, workers, results, completed, &estats)
	spInject.End()
	if err != nil {
		return nil, err
	}
	if ferr := c.Journal.Flush(); ferr != nil {
		return nil, ferr
	}
	if c.Obs != nil {
		c.Obs.Counter("letgo_engine_forks_total").Add(estats.Forks)
		c.Obs.Counter("letgo_engine_pages_copied_total").Add(estats.PagesCopied)
		c.Obs.Counter("letgo_engine_instructions_replayed_total").Add(estats.InstrsReplayed)
		c.Obs.Counter("letgo_engine_instructions_saved_total").Add(estats.InstrsSaved)
		c.Obs.Counter("letgo_engine_converged_total").Add(estats.Converged)
		c.Obs.Counter("letgo_engine_instructions_elided_total").Add(estats.InstrsElided)
	}

	res = c.aggregate(p, unit, results, completed, resumed, estats)
	c.done(res)
	return res, nil
}

// reportShard mirrors a non-trivial work unit into the obs plane:
// letgo_shard_* gauges and the /status snapshot's shard fields.
func (c *Campaign) reportShard(unit *WorkUnit) {
	if unit.Spec.IsZero() || c.Obs == nil {
		return
	}
	c.Obs.Gauge("letgo_shard_index").Set(float64(unit.Spec.Index))
	c.Obs.Gauge("letgo_shard_count").Set(float64(unit.Spec.Count))
	c.Obs.Gauge("letgo_shard_planned_injections", "app", c.App.Name).Set(float64(unit.Size()))
	c.Obs.Status.SetShard(unit.Spec.Index, unit.Spec.Count)
}

// aggregate folds the unit's classified injections into a Result.
func (c *Campaign) aggregate(p *PlannedCampaign, unit *WorkUnit, results []Execution, completed []bool, resumed int, estats EngineStats) *Result {
	completedCount := 0
	for _, ok := range completed {
		if ok {
			completedCount++
		}
	}
	res := &Result{
		App:           c.App.Name,
		Mode:          c.Mode,
		N:             c.N,
		GoldenRetired: p.GoldenRetired,
		EngineStats:   estats,
		Shard:         unit.Spec.String(),
		Planned:       unit.Size(),
		Completed:     completedCount,
		Resumed:       resumed,
		Interrupted:   completedCount < unit.Size(),
	}
	if p.stateSet != nil {
		res.DerivedBytes = p.stateSet.DerivedBytes
		res.FullBytes = p.stateSet.FullBytes
		res.AnalysisRegions = p.stateSet.RegionCount()
		res.AnalysisLiveRegions = p.stateSet.Live.Count()
	}
	for i, r := range results {
		if !completed[i] {
			continue
		}
		class := r.class()
		res.Counts.Add(class)
		if r.DestLive {
			res.LiveDest.Add(class)
		} else {
			res.DeadDest.Add(class)
		}
		if p.stateSet != nil {
			if r.RepairSafe {
				res.SafeSite.Add(class)
			} else {
				res.UnsafeSite.Add(class)
			}
		}
		if r.HasLatency {
			res.CrashLatencies = append(res.CrashLatencies, r.Latency)
		}
	}
	res.Metrics = outcome.ComputeMetrics(&res.Counts)
	if res.Counts.N > 0 {
		res.PCrash = float64(res.Counts.CrashTotal()) / float64(res.Counts.N)
	}
	if c.Obs != nil && !p.start.IsZero() {
		c.Obs.Gauge("letgo_campaign_duration_seconds", "app", c.App.Name).
			Set(time.Since(p.start).Seconds())
	}
	return res
}

// restore fills results with the unit's journaled injections and returns
// how many were restored. Journaled records outside the unit are ignored;
// one inside it that names a class or signal this program does not know
// is refused before anything executes.
func (c *Campaign) restore(j *resilience.Journal, unit *WorkUnit, results []Execution, completed []bool) (int, error) {
	if j == nil {
		return 0, nil
	}
	done := j.Completed(c.journalKey())
	resumed := 0
	for i, rec := range done {
		if !unit.Has(i) {
			continue
		}
		class, err := checkRecord(rec)
		if err != nil {
			return 0, fmt.Errorf("inject: journal %s index %d: %w", j.Path(), i, err)
		}
		results[i] = Execution{Record: rec}
		completed[i] = true
		resumed++
		if c.Obs != nil {
			// Keep the engine-independent class tally and the live
			// tally aligned with the table a resumed campaign will
			// render.
			c.Obs.Counter("letgo_outcomes_total", "class", rec.Class).Inc()
			c.Obs.Status.RecordRestored(rec.Class, class.Quarantined())
		}
	}
	if resumed > 0 && c.Obs != nil {
		c.Obs.Counter("letgo_resume_skipped_total").Add(uint64(resumed))
		c.Obs.Emit(obs.ResumeEvent{App: c.App.Name, Skipped: resumed, Total: c.N})
	}
	return resumed, nil
}

// laneStep carries one injection's outputs out of the supervised body:
// the classified result and, on the fork engine, the (possibly re-forked)
// replay machine handed back to the lane plus the engine work the step
// contributed. The rerun engine leaves everything but r zero.
type laneStep struct {
	r    Execution
	cur  *vm.Machine
	dbg  *debug.Debugger
	work EngineStats
}

// add accumulates d's work counts into s.
func (s *EngineStats) add(d EngineStats) {
	s.Forks += d.Forks
	s.PagesCopied += d.PagesCopied
	s.InstrsReplayed += d.InstrsReplayed
	s.InstrsSaved += d.InstrsSaved
	s.Converged += d.Converged
	s.InstrsElided += d.InstrsElided
}

// forkOne positions a replay machine at the injection's dynamic index
// (re-forking from a waypoint when one leapfrogs the machine), runs the
// injection on a COW fork of it — only as far as the point where it
// reconverges with the golden run, if it does — and classifies the outcome.
func (c *Campaign) forkOne(p *PlannedCampaign, plan Plan, when uint64, cur *vm.Machine, curDbg *debug.Debugger) (laneStep, error) {
	var out laneStep
	gold := p.gold
	// Re-fork only when a waypoint is strictly ahead of the replay
	// machine; otherwise stepping forward is cheaper.
	if cur == nil || gold.NearestRetired(when) > cur.Retired {
		if cur != nil {
			out.work.PagesCopied += cur.Mem.CopiedPages()
		}
		cur, _ = gold.ForkAt(when)
		curDbg = debug.New(cur)
		out.work.Forks++
	}
	replayFrom := cur.Retired
	if stop := curDbg.RunToDynamic(when); stop != nil {
		return out, fmt.Errorf("inject: clean replay to dynamic %d stopped: %v", when, stop.Reason)
	}
	out.work.InstrsReplayed += when - replayFrom
	out.work.InstrsSaved += replayFrom
	runM := cur.Fork()
	out.work.Forks++
	spExec := c.Obs.StartSpan("execute", "engine", "fork")
	ro, err := executeAt(gold, p.an, plan, c.Mode, c.Opts, p.Budget, c.Obs, runM)
	spExec.End()
	if err != nil {
		return out, err
	}
	out.work.PagesCopied += runM.Mem.CopiedPages()
	if ro.elided > 0 {
		out.work.Converged++
		out.work.InstrsElided += ro.elided
	}
	if out.r, err = c.classify(p, &ro); err != nil {
		return out, err
	}
	out.cur, out.dbg = cur, curDbg
	return out, nil
}

// runLanes executes the unit's injections, on either engine, in one lane
// loop. The engine fixes an order over the unit's plan indices — plan
// index for rerun; for fork, dynamic index in the golden run, from sites
// resolved once per plan (PlannedCampaign.resolved) — and lane w takes
// positions w, w+W, w+2W, ... of it. The engines differ only in the
// per-injection body: rerun's `one` re-executes the whole prefix from
// PC 0 on a fresh machine; fork's forkOne advances the lane's clean
// replay machine to the site and injects on a COW fork of it, so the
// clean prefix is never contaminated.
//
// The stride is what keeps fork lanes equally busy: an injection at
// fraction x of the golden run costs about (1-x) golden run-outs, so
// contiguous slices of the sorted order would hand the earliest lane
// several times the latest lane's work, while a stride samples the whole
// timeline in every lane. A lane's dynamic indices still only increase,
// so its replay machine only ever moves forward (RunToDynamic to the next
// site, re-forked from a waypoint only when one leapfrogs it) and replays
// at most one golden run per lane. Lane assignment is a pure function of
// (plan, unit, W), so every engine count repeats exactly across runs.
func (c *Campaign) runLanes(ctx context.Context, p *PlannedCampaign, idx []int, workers int, results []Execution, completed []bool, estats *EngineStats) error {
	order, fork := idx, c.Engine != EngineRerun
	var whens []uint64
	if fork {
		var first bool
		var err error
		if whens, first, err = p.resolved(c.Obs); err != nil {
			return err
		}
		// Ties in dynamic index break by plan index.
		order = append([]int(nil), idx...)
		sort.Slice(order, func(a, b int) bool {
			if whens[order[a]] != whens[order[b]] {
				return whens[order[a]] < whens[order[b]]
			}
			return order[a] < order[b]
		})
		estats.Waypoints = p.gold.Waypoints()
		if first {
			estats.Forks = uint64(p.gold.Waypoints())
			estats.PagesCopied = p.gold.PagesCopied()
		}
	}

	stats := make([]EngineStats, workers) // per-lane engine work, summed below
	errs := make([]error, workers)
	// failed lets the first erroring lane stop the others early instead of
	// letting them burn through their remaining injections.
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer c.Obs.StartSpan("worker_chunk", "worker", workerLabel(w), "engine", c.Engine.String()).End()
			st := &stats[w]
			var cur *vm.Machine
			var curDbg *debug.Debugger
			for k := w; k < len(order); k += workers {
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := order[k]
				if completed[i] {
					continue // restored from the journal
				}
				// The supervised body gets the lane's replay machine by
				// value and hands back a replacement only on success: a
				// timed-out body's abandoned goroutine may still be using
				// the machine, so quarantine discards it and the next
				// injection re-forks from a frozen waypoint.
				bodyCur, bodyDbg := cur, curDbg
				out, quar, stack, err := supervise(c.Watchdog, func() (laneStep, error) {
					if c.beforeInjection != nil {
						c.beforeInjection(i)
					}
					if !fork {
						return c.one(p, p.Plans[i])
					}
					return c.forkOne(p, p.Plans[i], whens[i], bodyCur, bodyDbg)
				})
				if err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
				if quar != "" {
					out = laneStep{r: c.quarantine(p, quar, stack)}
				}
				cur, curDbg = out.cur, out.dbg
				st.add(out.work)
				out.r.Index, out.r.Worker = i, w
				results[i] = out.r
				completed[i] = true
				c.finish(out.r)
			}
			if cur != nil {
				st.PagesCopied += cur.Mem.CopiedPages()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, st := range stats {
		estats.add(st)
	}
	return nil
}

// quarantine converts a harness fault into its quarantine record and
// counts it in the obs sinks.
func (c *Campaign) quarantine(p *PlannedCampaign, reason, stack string) Execution {
	class := outcome.CHang
	if reason == quarPanic {
		class = outcome.HarnessFault
	}
	if c.Obs != nil {
		c.Obs.Counter("letgo_quarantine_total", "reason", reason).Inc()
		if reason == quarWatchdog {
			c.Obs.Counter("letgo_watchdog_timeouts_total").Inc()
		}
	}
	return Execution{Record: resilience.Record{Key: p.Key, Class: class.String(), Quarantine: reason, Stack: stack}}
}

// latencyBuckets spans the observed crash-latency range: the paper's
// observation 3 is that most crashes land within tens of instructions.
var latencyBuckets = obs.ExpBuckets(1, 4, 12)

// finish journals and reports one classified injection.
func (c *Campaign) finish(e Execution) {
	// Engine-independent per-class tally: both engines route every
	// classified injection through here, so /metrics agrees with the
	// rendered table.
	if c.Obs != nil {
		c.Obs.Counter("letgo_outcomes_total", "class", e.Class).Inc()
	}
	if c.Journal != nil {
		// Append errors are not fatal mid-campaign: the record stays in
		// memory and the terminal Flush (whose error does surface)
		// retries the write.
		c.Journal.Append(e.Record)
		if c.Obs != nil {
			c.Obs.Counter("letgo_resume_journaled_total").Inc()
		}
	}
	if c.Observer != nil {
		c.Observer.Executed(e)
	}
	if c.Obs == nil {
		return
	}
	c.Obs.Emit(e)
	c.Obs.Counter("letgo_injections_total", "app", c.App.Name, "class", e.Class).Inc()
	c.Obs.Counter("letgo_worker_injections_total", "worker", workerLabel(e.Worker)).Inc()
	if e.HasLatency {
		c.Obs.Histogram("letgo_crash_latency_instructions", latencyBuckets).Observe(float64(e.Latency))
	}
	c.Obs.Status.Record(e.Class, e.class().Quarantined())
}

// workerLabel formats a worker index as a metric label.
func workerLabel(w int) string {
	if w < 0 {
		return "?"
	}
	return strconv.Itoa(w)
}

// class is e's outcome class. Every Execution names a known one: classify
// and quarantine build theirs from an outcome.Class, and restore refuses
// a journal record that does not.
func (e *Execution) class() outcome.Class {
	class, _ := outcome.ParseClass(e.Class)
	return class
}

// checkRecord returns a journal record's class, or an error when the
// record names a class or signal this program does not know.
func checkRecord(rec resilience.Record) (outcome.Class, error) {
	class, err := outcome.ParseClass(rec.Class)
	if err != nil || rec.Signal == "" {
		return class, err
	}
	for _, sig := range []vm.Signal{vm.SIGNONE, vm.SIGSEGV, vm.SIGBUS, vm.SIGABRT, vm.SIGFPE} {
		if rec.Signal == sig.String() {
			return class, nil
		}
	}
	return 0, fmt.Errorf("inject: unknown signal %q", rec.Signal)
}

// one executes and classifies a single injection on the rerun engine.
func (c *Campaign) one(p *PlannedCampaign, plan Plan) (laneStep, error) {
	spExec := c.Obs.StartSpan("execute", "engine", "rerun")
	ro, err := executeHub(p.prog, p.an, plan, c.Mode, c.Opts, p.Budget, c.Obs)
	spExec.End()
	if err != nil {
		return laneStep{}, err
	}
	r, err := c.classify(p, &ro)
	return laneStep{r: r}, err
}

// classify applies the app-level acceptance check and golden comparison
// to a raw run outcome, and then drops the machine reference from ro, so a
// finished run's page tables become collectable while the campaign is
// still executing (campaigns hold every Execution until aggregation, and N
// machines' worth of dirty pages is the difference between a flat and a
// linearly growing footprint).
func (c *Campaign) classify(p *PlannedCampaign, ro *RunOutcome) (Execution, error) {
	defer c.Obs.StartSpan("classify").End()
	rec := outcome.RunRecord{
		Finished: ro.Finished,
		Hang:     ro.Hang,
		Repaired: ro.Repaired,
	}
	sig := ro.Signal
	if ro.Repaired && sig == vm.SIGNONE {
		sig = vm.SIGSEGV // at least one crash was elided; exact signal in events
	}
	if ro.Finished {
		pass, err := c.App.Accept(ro.Machine)
		if err != nil {
			return Execution{}, err
		}
		rec.CheckPassed = pass
		if pass {
			out, err := c.App.Output(ro.Machine)
			if err != nil {
				return Execution{}, err
			}
			rec.MatchesGolden = c.App.MatchesGolden(out, p.goldenOut)
		}
	}
	ro.Machine = nil
	e := Execution{Record: resilience.Record{
		Key:        p.Key,
		Class:      outcome.Classify(rec).String(),
		DestLive:   ro.DestLive,
		Latency:    ro.CrashLatency,
		HasLatency: ro.HasLatency,
		Retired:    ro.Retired,
	}}
	if sig != vm.SIGNONE {
		e.Signal = sig.String()
	}
	if p.stateSet != nil {
		e.RepairSafe, _ = p.stateSet.RepairSafeAt(ro.Plan.Site.Addr)
	}
	return e, nil
}
