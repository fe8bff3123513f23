package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/stats"
)

// countingHub is a hub whose registry tallies transitions per
// (arm, from, to) edge in letgo_sim_transitions_total, and whose event
// stream carries every sim_transition in order.
type countingHub struct {
	hub    *obs.Hub
	events bytes.Buffer
}

func newCountingHub() *countingHub {
	c := &countingHub{}
	c.hub = &obs.Hub{Reg: obs.NewRegistry(), Em: obs.NewEmitter(&c.events)}
	return c
}

// edges reads letgo_sim_transitions_total by (arm, from, to).
func (c *countingHub) edges() map[[3]string]int {
	edges := map[[3]string]int{}
	for _, m := range c.hub.Reg.Snapshot().Counters {
		if m.Name == "letgo_sim_transitions_total" {
			edges[[3]string{m.Labels["arm"], m.Labels["from"], m.Labels["to"]}] += int(m.Value)
		}
	}
	return edges
}

// broken counts the sim_transition events, and those that break state
// continuity: every edge must chain, the previous "to" being the next
// "from" (COMP is the implicit start state).
func (c *countingHub) broken(t *testing.T) (bad, n int) {
	t.Helper()
	last := map[string]string{} // arm -> last "to" state
	sc := bufio.NewScanner(bytes.NewReader(c.events.Bytes()))
	for sc.Scan() {
		var env struct {
			Type  string `json:"type"`
			Event struct {
				Arm, From, To string
			} `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.Type != "sim_transition" {
			continue
		}
		n++
		ev := env.Event
		if prev, ok := last[ev.Arm]; ok && prev != ev.From && prev != StateComp {
			bad++
		}
		last[ev.Arm] = ev.To
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return bad, n
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
	tr := newCountingHub()
	std2, lg2, err := CompareArms(p, stats.NewRNG(7), horizon, tr.hub)
	if err != nil {
		t.Fatal(err)
	}
	if std1 != std2 || lg1 != lg2 {
		t.Errorf("tracing changed results:\n%+v vs %+v\n%+v vs %+v", std1, std2, lg1, lg2)
	}
	edges := tr.edges()
	bad, n := tr.broken(t)
	if bad != 0 {
		t.Errorf("%d transitions broke state continuity", bad)
	}
	total := 0
	for _, k := range edges {
		total += k
	}
	if n == 0 || n != total {
		t.Errorf("%d sim_transition events, %d counted transitions", n, total)
	}

	// The transition counts must be consistent with the Result tallies.
	chkStd := edges[[3]string{ArmStandard, StateVerif, StateChk}]
	if chkStd != std2.Checkpoints {
		t.Errorf("standard VERIF->CHK = %d, Result.Checkpoints = %d", chkStd, std2.Checkpoints)
	}
	elided := edges[[3]string{ArmLetGo, StateLetGo, StateCont}]
	if elided != lg2.Elided {
		t.Errorf("letgo LETGO->CONT = %d, Result.Elided = %d", elided, lg2.Elided)
	}
	gaveUp := edges[[3]string{ArmLetGo, StateLetGo, StateRollback}]
	if gaveUp != lg2.GaveUp {
		t.Errorf("letgo LETGO->ROLLBACK = %d, Result.GaveUp = %d", gaveUp, lg2.GaveUp)
	}
	crashes := edges[[3]string{ArmLetGo, StateComp, StateLetGo}] +
		edges[[3]string{ArmLetGo, StateCont, StateRollback}]
	if crashes != lg2.Crashes {
		t.Errorf("letgo crash edges = %d, Result.Crashes = %d", crashes, lg2.Crashes)
	}
}

func TestObsTracerRecordsTransitions(t *testing.T) {
	app, _ := PaperAppByName("CLAMR")
	p := ParamsFor(app, 120, 0.10, 21600)
	var events bytes.Buffer
	hub := &obs.Hub{Reg: obs.NewRegistry(), Em: obs.NewEmitter(&events)}
	std, lg, err := CompareArms(p, stats.NewRNG(3), 1e6, hub)
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

	// A hub without sinks is safe.
	if _, _, err := CompareArms(p, stats.NewRNG(3), 1e5, &obs.Hub{}); err != nil {
		t.Fatal(err)
	}
}

// TestObsTracerSpans: a figure sweep is timed as one checkpoint_sweep span
// around one checkpoint_simulate span per arm and point, and an untraced
// sweep (nil hub) opens none.
func TestObsTracerSpans(t *testing.T) {
	app, _ := PaperAppByName("HPL")
	hub := &obs.Hub{Reg: obs.NewRegistry()}
	nodes := []int{100_000, 200_000}
	if _, err := SweepScaleTraced(app, 120, 0.10, nodes, 5, 1e5, hub); err != nil {
		t.Fatal(err)
	}
	spans := map[string]uint64{}
	for _, h := range hub.Reg.Snapshot().Histograms {
		if h.Name == obs.SpanHistogram {
			spans[h.Labels["span"]] += h.Count
		}
	}
	want := map[string]uint64{"checkpoint_sweep": 1, "checkpoint_simulate": 2 * uint64(len(nodes))}
	if len(spans) != len(want) || spans["checkpoint_sweep"] != want["checkpoint_sweep"] ||
		spans["checkpoint_simulate"] != want["checkpoint_simulate"] {
		t.Errorf("spans = %v, want %v", spans, want)
	}
	if _, err := SweepScaleTraced(app, 120, 0.10, nodes, 5, 1e5, nil); err != nil {
		t.Fatal(err)
	}
}
