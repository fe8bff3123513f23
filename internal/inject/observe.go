package inject

import (
	"strconv"

	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/outcome"
	"github.com/letgo-hpc/letgo/internal/stats"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// obsObserver records campaign activity into a hub's metrics and event
// stream and drives an optional live progress reporter and the hub's live
// status tracker (the /status endpoint's source). All callbacks are
// concurrency-safe (the hub's primitives are atomic or mutexed).
type obsObserver struct {
	app    string
	n      int
	hub    *obs.Hub
	prog   *obs.Progress
	status *obs.CampaignStatus
}

// NewObsObserver returns an Observer that mirrors a campaign of n
// injections against the named app (running in the given mode) into hub
// (metrics, JSONL events and, when the hub carries one, the /status
// tracker) and prog (live progress). Either sink may be nil.
func NewObsObserver(app string, mode Mode, n int, hub *obs.Hub, prog *obs.Progress) Observer {
	o := &obsObserver{app: app, n: n, hub: hub, prog: prog}
	if hub != nil {
		o.status = hub.Status
		if hub.Reg != nil {
			hub.Reg.Help("letgo_injections_total", "Classified injections, by app and Figure-4 class.")
			hub.Reg.Help("letgo_crash_latency_instructions", "Injection-to-crash distance in dynamic instructions.")
			hub.Reg.Help("letgo_worker_injections_total", "Injections executed, by campaign worker.")
		}
	}
	o.status.Begin(app, mode.String(), n)
	return o
}

func (o *obsObserver) Phase(phase string) {
	o.hub.Emit(obs.PhaseEvent{App: o.app, Phase: phase})
	o.status.SetPhase(phase)
	if phase == PhaseInject {
		o.prog.Start("inject "+o.app, o.n)
	}
}

func (o *obsObserver) Planned(index int, plan Plan) {
	o.hub.Emit(obs.InjectionPlannedEvent{
		App: o.app, Index: index,
		Addr: plan.Site.Addr, Instance: plan.Site.Instance, Mask: plan.Mask,
	})
}

// latencyBuckets spans the observed crash-latency range: the paper's
// observation 3 is that most crashes land within tens of instructions.
var latencyBuckets = obs.ExpBuckets(1, 4, 12)

func (o *obsObserver) Executed(e Execution) {
	sig := ""
	if e.Signal != vm.SIGNONE {
		sig = e.Signal.String()
	}
	o.hub.Emit(obs.InjectionExecutedEvent{
		App: o.app, Index: e.Index, Worker: e.Worker,
		Class: e.Class.String(), Signal: sig,
		Retired: e.Retired, CrashLatency: e.Latency, HasLatency: e.HasLatency,
		RepairSafe: e.RepairSafe,
	})
	o.hub.Emit(obs.OutcomeEvent{App: o.app, Index: e.Index, Class: e.Class.String()})
	o.hub.Counter("letgo_injections_total", "app", o.app, "class", e.Class.String()).Inc()
	o.hub.Counter("letgo_worker_injections_total", "worker", workerLabel(e.Worker)).Inc()
	if e.HasLatency {
		o.hub.Histogram("letgo_crash_latency_instructions", latencyBuckets).
			Observe(float64(e.Latency))
	}
	o.status.Record(e.Class.String(), e.Class.Quarantined())
	o.prog.Step(e.Class.String())
}

func (o *obsObserver) Done(res *Result) {
	o.hub.Gauge("letgo_campaign_pcrash", "app", o.app).Set(res.PCrash)
	o.hub.Gauge("letgo_campaign_continuability", "app", o.app).Set(res.Metrics.Continuability)
	o.hub.Gauge("letgo_campaign_median_crash_latency_instructions", "app", o.app).
		Set(float64(stats.MedianUint64(res.CrashLatencies)))
	for _, cl := range outcome.Classes() {
		// Materialize every class so dumps carry explicit zeros.
		o.hub.Counter("letgo_injections_total", "app", o.app, "class", cl.String()).Add(0)
	}
	o.hub.Emit(obs.CampaignDoneEvent{
		App: o.app, N: res.N, Completed: res.Completed,
		Resumed: res.Resumed, Interrupted: res.Interrupted,
	})
	o.status.Done(res.Interrupted)
	o.prog.Finish()
}

func (o *obsObserver) Failed(phase string, err error) {
	o.hub.Emit(obs.CampaignFailedEvent{App: o.app, Phase: phase, Error: err.Error()})
	o.status.Failed()
	o.prog.Finish()
}

// workerLabel formats a worker index as a metric label.
func workerLabel(w int) string {
	if w < 0 {
		return "?"
	}
	return strconv.Itoa(w)
}
