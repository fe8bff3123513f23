package inject_test

import (
	"context"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

// progressLine returns a live tally that draws its progress line into b
// on a fake clock advancing one second per reading.
func progressLine(b *strings.Builder) *obs.CampaignStatus {
	s := obs.NewCampaignStatus(obs.NewProgress(b, time.Second))
	var mu sync.Mutex
	clock := time.Unix(1700000000, 0)
	s.SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		clock = clock.Add(time.Second)
		return clock
	})
	return s
}

// finalProgress returns the last line the progress reporter drew, and the
// sum of its per-class counts.
func finalProgress(t *testing.T, out string) (string, int) {
	t.Helper()
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("progress line never finished: %q", out)
	}
	draws := strings.Split(strings.TrimSuffix(out, "\n"), "\r")
	last := strings.TrimSuffix(draws[len(draws)-1], "\x1b[K")
	classes := 0
	for _, field := range strings.Fields(last) {
		if _, n, ok := strings.Cut(field, "="); ok {
			k, err := strconv.Atoi(n)
			if err != nil {
				t.Fatalf("bad class count %q in %q", field, last)
			}
			classes += k
		}
	}
	return last, classes
}

// TestProgressCountsOwnedWork: the progress line measures the work the run
// owns. A finished -shard 1/3 of N = 60 ends at 20/20, not 20/60, and a
// resumed campaign counts its journal-restored injections, so it ends at
// N/N with every class tallied.
func TestProgressCountsOwnedWork(t *testing.T) {
	a, ok := apps.ByName("CLAMR")
	if !ok {
		t.Fatal("no CLAMR")
	}
	const n = 60
	dir := t.TempDir()

	t.Run("shard", func(t *testing.T) {
		j, err := resilience.Create(filepath.Join(dir, "shard.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		c := &inject.Campaign{
			App: a, Mode: inject.LetGoE, N: n, Seed: 17, Workers: 2,
			ShardSpec: inject.ShardSpec{Index: 1, Count: 3}, Journal: j, Obs: &obs.Hub{Status: progressLine(&out)},
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		last, classes := finalProgress(t, out.String())
		if !strings.HasPrefix(last, "inject CLAMR  20/20 (100%)") || classes != 20 {
			t.Errorf("finished shard ends at %q (classes sum to %d), want 20/20 (100%%) and 20", last, classes)
		}
	})

	t.Run("resume", func(t *testing.T) {
		path := filepath.Join(dir, "resume.jsonl")
		j, err := resilience.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		part := &inject.Campaign{
			App: a, Mode: inject.LetGoE, N: n, Seed: 17, Workers: 2, Journal: j,
			Observer: &cancelAfter{k: 15, cancel: cancel},
		}
		partial, err := part.RunContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !partial.Interrupted {
			t.Fatalf("the first run was not interrupted: %d of %d", partial.Completed, n)
		}
		j2, err := resilience.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		c := &inject.Campaign{App: a, Mode: inject.LetGoE, N: n, Seed: 17, Workers: 2, Journal: j2, Obs: &obs.Hub{Status: progressLine(&out)}}
		r, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Resumed == 0 {
			t.Fatal("the resumed run restored nothing")
		}
		last, classes := finalProgress(t, out.String())
		if !strings.HasPrefix(last, "inject CLAMR  60/60 (100%)") || classes != n {
			t.Errorf("resumed run (%d restored) ends at %q (classes sum to %d), want 60/60 (100%%) and %d", r.Resumed, last, classes, n)
		}
	})
}

// executedClock is a fake clock that advances one second per executed
// injection and stands still otherwise, so every run it times executes
// at exactly one injection per second of its own work.
type executedClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *executedClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *executedClock) Phase(string)             {}
func (c *executedClock) Planned(int, inject.Plan) {}
func (c *executedClock) Done(*inject.Result)      {}
func (c *executedClock) Failed(string, error)     {}
func (c *executedClock) Executed(inject.Execution) {
	c.mu.Lock()
	c.t = c.t.Add(time.Second)
	c.mu.Unlock()
}

// TestResumeRateCountsOwnWork: the rate counts only the work this run
// executes. A resume that restores 64 of 400 injections and executes the
// other 336 at one per second reports the same 1.0/s as a fresh run at
// that speed, on the progress line and on /status; counting the restored
// 64 would report 400/336 s.
func TestResumeRateCountsOwnWork(t *testing.T) {
	a, ok := apps.ByName("CLAMR")
	if !ok {
		t.Fatal("no CLAMR")
	}
	const n, restored = 400, 64
	run := func(j *resilience.Journal) (obs.StatusSnapshot, string, *inject.Result) {
		t.Helper()
		var out strings.Builder
		clk := &executedClock{t: time.Unix(1700000000, 0)}
		status := obs.NewCampaignStatus(obs.NewProgress(&out, time.Second))
		status.SetClock(clk.now)
		c := &inject.Campaign{App: a, Mode: inject.LetGoE, N: n, Seed: 17, Workers: 2, Journal: j, Observer: clk, Obs: &obs.Hub{Status: status}}
		r, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		last, _ := finalProgress(t, out.String())
		return status.Snapshot(), last, r
	}

	full := resilience.New()
	freshSnap, freshLine, _ := run(full)
	partial := resilience.New()
	for _, rec := range full.Records() {
		if rec.Index < restored {
			if err := partial.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	resumeSnap, resumeLine, r := run(partial)
	if r.Resumed != restored || resumeSnap.Resumed != restored {
		t.Fatalf("the resume restored %d (/status %d), want %d", r.Resumed, resumeSnap.Resumed, restored)
	}

	for _, tc := range []struct {
		name string
		snap obs.StatusSnapshot
		line string
	}{{"fresh", freshSnap, freshLine}, {"resume", resumeSnap, resumeLine}} {
		if tc.snap.RatePerSecond != 1 {
			t.Errorf("%s: /status rate_per_second = %v, want 1", tc.name, tc.snap.RatePerSecond)
		}
		if want := "inject CLAMR  400/400 (100%)  1.0/s  "; !strings.HasPrefix(tc.line, want) {
			t.Errorf("%s: progress line %q, want it to start %q", tc.name, tc.line, want)
		}
	}
}
