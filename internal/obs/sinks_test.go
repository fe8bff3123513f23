package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSinksAtomicPublish(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	events := filepath.Join(dir, "events.jsonl")
	s, err := Open(Options{MetricsOut: metrics, EventsJSON: events})
	if err != nil {
		t.Fatal(err)
	}
	if s.Hub == nil {
		t.Fatal("sinks not enabled")
	}
	s.Hub.Counter("letgo_test_total").Inc()
	s.Hub.Emit(PhaseEvent{App: "X", Phase: "inject"})

	// Mid-run, neither final path exists — a kill here leaves no
	// truncated outputs, only *.tmp* files.
	for _, p := range []string{metrics, events} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s exists before Close", p)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := os.ReadFile(metrics)
	if err != nil || !strings.Contains(string(m), "letgo_test_total") {
		t.Errorf("metrics dump: %v\n%s", err, m)
	}
	e, err := os.ReadFile(events)
	if err != nil || !strings.Contains(string(e), `"phase":"inject"`) {
		t.Errorf("events dump: %v\n%s", err, e)
	}
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		if strings.Contains(ent.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", ent.Name())
		}
	}
}

func TestOpenSinksBadEventsPath(t *testing.T) {
	if _, err := Open(Options{EventsJSON: filepath.Join(t.TempDir(), "no", "dir", "e.jsonl")}); err == nil {
		t.Fatal("expected error for unwritable events path")
	}
}

// TestOpenProbesMetricsOut: a -metrics-out path that cannot be written
// fails at Open, before the run, not at Close after it; a good one is
// probed without leaving anything behind.
func TestOpenProbesMetricsOut(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(Options{MetricsOut: filepath.Join(dir, "no", "dir", "m.prom")}); err == nil {
		t.Fatal("expected error for unwritable metrics path")
	}
	if _, err := Open(Options{MetricsOut: filepath.Join(dir, "m.prom")}); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("probe left %d file(s) behind, first %s", len(ents), ents[0].Name())
	}
}

func TestSinksAllOff(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Hub != nil {
		t.Error("empty sinks hold a hub")
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	// -progress alone yields a hub that carries the status tracker, which
	// draws the line, down the stack.
	p, err := Open(Options{Progress: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Hub == nil || p.Status == nil || p.Hub.Status != p.Status || p.Status.line == nil || p.Hub.Reg != nil || p.Hub.Em != nil || p.Fanout != nil {
		t.Errorf("-progress alone: hub %+v, status %p", p.Hub, p.Status)
	}
	var nilSinks *Sinks
	if nilSinks.Close() != nil {
		t.Error("nil sinks misbehave")
	}
}
