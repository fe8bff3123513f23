package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestEmitterGoldenJSONL(t *testing.T) {
	var b strings.Builder
	e := NewEmitter(&b)
	e.Emit(PhaseEvent{App: "LULESH", Phase: "inject"})
	e.Emit(InjectionPlannedEvent{App: "LULESH", Index: 0, Addr: 0x1000, Instance: 7, Mask: 1 << 45})
	e.Emit(SignalEvent{Signal: "SIGSEGV", PC: 0x1010, Retired: 123, Intercepted: true})
	e.Emit(HeuristicEvent{Heuristic: "h1_int_fill", PC: 0x1010, NewPC: 0x1011})
	e.Emit(CampaignDoneEvent{App: "LULESH", N: 10, Completed: 4, Interrupted: true})
	e.Emit(SimTransitionEvent{Arm: "letgo", From: "COMP", To: "LETGO", Cost: 12.5, Useful: 10})
	e.Emit(GiveUpEvent{Reason: "repair_budget", Signal: "SIGBUS", PC: 0x2000})
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":1,"type":"phase","event":{"app":"LULESH","phase":"inject"}}
{"seq":2,"type":"injection_planned","event":{"app":"LULESH","index":0,"addr":4096,"instance":7,"mask":35184372088832}}
{"seq":3,"type":"signal","event":{"signal":"SIGSEGV","pc":4112,"retired":123,"intercepted":true}}
{"seq":4,"type":"heuristic","event":{"heuristic":"h1_int_fill","pc":4112,"new_pc":4113}}
{"seq":5,"type":"campaign_done","event":{"app":"LULESH","n":10,"completed":4,"interrupted":true}}
{"seq":6,"type":"sim_transition","event":{"arm":"letgo","from":"COMP","to":"LETGO","cost":12.5,"useful":10}}
{"seq":7,"type":"giveup","event":{"reason":"repair_budget","signal":"SIGBUS","pc":8192}}
`
	if b.String() != want {
		t.Errorf("JSONL mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
	if e.Seq() != 7 {
		t.Errorf("seq = %d", e.Seq())
	}
	// Every line round-trips through a generic envelope.
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		var env struct {
			Seq   uint64         `json:"seq"`
			Type  string         `json:"type"`
			Event map[string]any `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if env.Type == "" || env.Event == nil {
			t.Fatalf("line %q missing type or event", line)
		}
	}
}

// failWriter errors after n writes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	w.n--
	return len(p), nil
}

func TestEmitterStickyError(t *testing.T) {
	e := NewEmitter(&failWriter{n: 1})
	e.Emit(PhaseEvent{Phase: "a"})
	if e.Err() != nil {
		t.Fatal("first emit should succeed")
	}
	e.Emit(PhaseEvent{Phase: "b"})
	if e.Err() == nil {
		t.Fatal("second emit should stick the error")
	}
	seq := e.Seq()
	e.Emit(PhaseEvent{Phase: "c"})
	if e.Seq() != seq {
		t.Error("emitter kept sequencing after a sticky error")
	}
}

func TestEmitterNil(t *testing.T) {
	var e *Emitter
	e.Emit(PhaseEvent{Phase: "x"})
	if e.Seq() != 0 || e.Err() != nil {
		t.Error("nil emitter misbehaved")
	}
	NewEmitter(&strings.Builder{}).Emit(nil) // nil event: ignored
}
