package obs

import (
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// lineStatus returns a tracker on a fake clock that draws its progress
// line into b every interval.
func lineStatus(b *strings.Builder, interval time.Duration) (*CampaignStatus, *Progress, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p := NewProgress(b, interval)
	s := NewCampaignStatus(p)
	s.SetClock(clk.now)
	return s, p, clk
}

func TestProgressThrottling(t *testing.T) {
	var b strings.Builder
	s, p, clk := lineStatus(&b, 100*time.Millisecond)
	s.Begin("TEST", "LetGo-E", 1000)
	s.SetPhase("inject")
	s.Execute(1000)

	// Execute opens the line; 100 records within one interval draw
	// nothing more.
	for i := 0; i < 100; i++ {
		s.Record("Benign", false)
	}
	if p.renders != 1 {
		t.Fatalf("renders within one interval = %d, want 1", p.renders)
	}

	// Advancing past the interval allows exactly one more render.
	clk.advance(150 * time.Millisecond)
	for i := 0; i < 100; i++ {
		s.Record("Crash", false)
	}
	if p.renders != 2 {
		t.Fatalf("renders after one interval = %d, want 2", p.renders)
	}

	s.Done(false)
	if p.renders != 3 {
		t.Fatalf("renders after Done = %d, want 3", p.renders)
	}
	out := b.String()
	if !strings.Contains(out, "inject TEST  200/1000 (20%)") {
		t.Errorf("final line missing label or totals: %q", out)
	}
	if !strings.Contains(out, "Benign=100") || !strings.Contains(out, "Crash=100") {
		t.Errorf("final line missing class counts: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("Done did not terminate the line")
	}

	// Records after Done draw nothing.
	clk.advance(time.Second)
	s.Record("Benign", false)
	if p.renders != 3 {
		t.Error("a closed line rendered")
	}
}

func TestProgressUnknownTotalAndUpdate(t *testing.T) {
	var b strings.Builder
	s, _, clk := lineStatus(&b, time.Second)
	s.Begin("prog", "", 0)
	s.SetPhase("run")
	s.Execute(0)
	clk.advance(2 * time.Second)
	s.SetCompleted(1 << 20)
	s.Done(false)
	out := b.String()
	if strings.Contains(out, "%") || strings.Contains(out, "ETA") {
		t.Errorf("unknown-total line shows percentage or ETA: %q", out)
	}
	if !strings.Contains(out, "run prog  1048576  524288.0/s") {
		t.Errorf("absolute update not rendered: %q", out)
	}
}

// TestProgressNil: a tracker without a line draws nothing, and a line
// opens only when work executes — a merge, which restores records
// without executing any, draws none.
func TestProgressNil(t *testing.T) {
	s := NewCampaignStatus(nil)
	s.Begin("x", "m", 1)
	s.Execute(1)
	s.Record("y", false)
	s.Done(false)

	var b strings.Builder
	s, p, _ := lineStatus(&b, time.Second)
	s.Begin("x", "m", 2)
	s.SetPhase("merge")
	s.RecordRestored("Benign", false)
	s.RecordRestored("SDC", false)
	s.Done(false)
	s.Failed()
	if p.renders != 0 || b.Len() != 0 {
		t.Errorf("a merge drew %d lines: %q", p.renders, b.String())
	}
}
