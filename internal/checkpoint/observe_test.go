package checkpoint

import (
	"bytes"
	"testing"

	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/stats"
)

// countingTracer tallies transitions per (arm, from, to) edge.
type countingTracer struct {
	edges map[[3]string]int
	last  map[string]string // arm -> last "to" state
	bad   int               // transitions violating state continuity
}

func newCountingTracer() *countingTracer {
	return &countingTracer{edges: map[[3]string]int{}, last: map[string]string{}}
}

func (c *countingTracer) Transition(arm, from, to string, cost, useful float64) {
	c.edges[[3]string{arm, from, to}]++
	if prev, ok := c.last[arm]; ok && prev != from && prev != StateComp {
		// Every reported edge must chain: the previous "to" is the next
		// "from" (COMP is the implicit start state).
		c.bad++
	}
	c.last[arm] = to
}

func TestTracedSimulationIsPassive(t *testing.T) {
	// A traced run must consume the same random stream and produce the
	// same Result as an untraced one.
	app, _ := PaperAppByName("LULESH")
	p := ParamsFor(app, 120, 0.10, 21600)
	const horizon = 3e6

	std1, lg1, err := CompareArms(p, stats.NewRNG(7), horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newCountingTracer()
	std2, lg2, err := CompareArms(p, stats.NewRNG(7), horizon, tr)
	if err != nil {
		t.Fatal(err)
	}
	if std1 != std2 || lg1 != lg2 {
		t.Errorf("tracing changed results:\n%+v vs %+v\n%+v vs %+v", std1, std2, lg1, lg2)
	}
	if tr.bad != 0 {
		t.Errorf("%d transitions broke state continuity", tr.bad)
	}

	// The transition counts must be consistent with the Result tallies.
	chkStd := tr.edges[[3]string{ArmStandard, StateVerif, StateChk}]
	if chkStd != std2.Checkpoints {
		t.Errorf("standard VERIF->CHK = %d, Result.Checkpoints = %d", chkStd, std2.Checkpoints)
	}
	elided := tr.edges[[3]string{ArmLetGo, StateLetGo, StateCont}]
	if elided != lg2.Elided {
		t.Errorf("letgo LETGO->CONT = %d, Result.Elided = %d", elided, lg2.Elided)
	}
	gaveUp := tr.edges[[3]string{ArmLetGo, StateLetGo, StateRollback}]
	if gaveUp != lg2.GaveUp {
		t.Errorf("letgo LETGO->ROLLBACK = %d, Result.GaveUp = %d", gaveUp, lg2.GaveUp)
	}
	crashes := tr.edges[[3]string{ArmLetGo, StateComp, StateLetGo}] +
		tr.edges[[3]string{ArmLetGo, StateCont, StateRollback}]
	if crashes != lg2.Crashes {
		t.Errorf("letgo crash edges = %d, Result.Crashes = %d", crashes, lg2.Crashes)
	}
}

func TestObsTracerRecordsTransitions(t *testing.T) {
	app, _ := PaperAppByName("CLAMR")
	p := ParamsFor(app, 120, 0.10, 21600)
	var events bytes.Buffer
	hub := &obs.Hub{Reg: obs.NewRegistry(), Em: obs.NewEmitter(&events)}
	tr := NewObsTracer(hub, nil)
	std, lg, err := CompareArms(p, stats.NewRNG(3), 1e6, tr)
	if err != nil {
		t.Fatal(err)
	}
	var transitions uint64
	for _, c := range hub.Reg.Snapshot().Counters {
		if c.Name == "letgo_sim_transitions_total" {
			transitions += c.Value
		}
	}
	if transitions == 0 {
		t.Fatal("no transitions counted")
	}
	// Each arm's Simulate also emits one checkpoint_simulate span event;
	// everything else on the stream is a transition.
	var spans uint64
	for _, h := range hub.Reg.Snapshot().Histograms {
		if h.Name == obs.SpanHistogram {
			spans += h.Count
		}
	}
	if spans != 2 {
		t.Errorf("span events = %d, want 2 (one checkpoint_simulate per arm)", spans)
	}
	if hub.Em.Seq() != transitions+spans {
		t.Errorf("events %d != transitions %d + spans %d", hub.Em.Seq(), transitions, spans)
	}
	// The final cost gauges match the Results.
	if got := hub.Reg.Gauge("letgo_sim_useful_seconds", "arm", ArmStandard).Value(); got > std.Cost {
		t.Errorf("standard useful gauge %v exceeds cost %v", got, std.Cost)
	}
	if got := hub.Reg.Gauge("letgo_sim_cost_seconds", "arm", ArmLetGo).Value(); got > lg.Cost {
		t.Errorf("letgo cost gauge %v exceeds final cost %v", got, lg.Cost)
	}

	// A nil-sink tracer is safe.
	nilTr := NewObsTracer(nil, nil)
	if _, _, err := CompareArms(p, stats.NewRNG(3), 1e5, nilTr); err != nil {
		t.Fatal(err)
	}
}
