package inject_test

// Kill-and-resume acceptance: a campaign interrupted at a random point
// and resumed from its journal must render byte-identical tables to an
// uninterrupted run — for every app, every mode, both engines, and even
// when the resumed run uses the other engine (journal keys deliberately
// exclude the substrate).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/report"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

// cancelAfter is an Observer that cancels a context once k injections
// have been classified, simulating a SIGINT landing mid-campaign.
type cancelAfter struct {
	k      int64
	count  atomic.Int64
	cancel context.CancelFunc
}

func (o *cancelAfter) Phase(string)             {}
func (o *cancelAfter) Planned(int, inject.Plan) {}
func (o *cancelAfter) Done(*inject.Result)      {}
func (o *cancelAfter) Failed(string, error)     {}
func (o *cancelAfter) Executed(inject.Execution) {
	if o.count.Add(1) == o.k {
		o.cancel()
	}
}

// normalizeResumed additionally clears the resume bookkeeping, which is
// documented as excluded from the equivalence contract (an uninterrupted
// run has Resumed == 0; a resumed one restores part of its work).
func normalizeResumed(r *inject.Result) inject.Result {
	n := normalize(r)
	n.Resumed = 0
	return n
}

// interruptAndResume runs the campaign template c once with a journal and
// a cancellation after k classified injections, then resumes it from the
// journal on resumeEngine and returns the partial and final results.
func interruptAndResume(t *testing.T, c inject.Campaign, k int, resumeEngine inject.Engine) (*inject.Result, *inject.Result) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := resilience.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	part := c
	part.Journal = j
	part.Observer = &cancelAfter{k: int64(k), cancel: cancel}
	partial, err := part.RunContext(ctx)
	if err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	if partial.Completed < k {
		t.Fatalf("interrupted run completed %d < %d injections", partial.Completed, k)
	}
	if partial.Counts.N != partial.Completed {
		t.Fatalf("partial counts cover %d runs, completed %d", partial.Counts.N, partial.Completed)
	}

	j2, err := resilience.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	res := c
	res.Engine = resumeEngine
	res.Journal = j2
	final, err := res.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if final.Resumed != partial.Completed {
		t.Errorf("resumed %d injections, journal held %d", final.Resumed, partial.Completed)
	}
	if final.Interrupted || final.Completed != c.N {
		t.Errorf("resumed run did not complete: %+v", final)
	}
	return partial, final
}

func TestKillResumeEquivalenceAllAppsAllModes(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 12
	}
	for _, app := range apps.All() {
		for _, mode := range []inject.Mode{inject.NoLetGo, inject.LetGoB, inject.LetGoE} {
			for _, eng := range []inject.Engine{inject.EngineFork, inject.EngineRerun} {
				app, mode, eng := app, mode, eng
				t.Run(app.Name+"/"+mode.String()+"/"+eng.String(), func(t *testing.T) {
					t.Parallel()
					c := inject.Campaign{
						App: app, Mode: mode, N: n, Seed: 1234,
						Workers: 4, Engine: eng,
					}
					base := c
					want, err := base.Run()
					if err != nil {
						t.Fatal(err)
					}
					_, final := interruptAndResume(t, c, n/3, eng)
					if got, ref := normalizeResumed(final), normalizeResumed(want); !reflect.DeepEqual(got, ref) {
						t.Errorf("resumed result diverges from uninterrupted run:\n%+v\nvs\n%+v", got, ref)
					}
					if got, ref := renderTable(t, final), renderTable(t, want); got != ref {
						t.Errorf("resumed table diverges:\n%s\nvs\n%s", got, ref)
					}
				})
			}
		}
	}
}

func TestKillResumeCrossEngine(t *testing.T) {
	// Interrupt on the fork engine, resume on rerun: the journal key has
	// no engine component because results are substrate-independent.
	app, ok := apps.ByName("CLAMR")
	if !ok {
		t.Fatal("no CLAMR app")
	}
	c := inject.Campaign{
		App: app, Mode: inject.LetGoE, N: 30, Seed: 77,
		Workers: 4, Engine: inject.EngineFork,
	}
	base := c
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, final := interruptAndResume(t, c, 10, inject.EngineRerun)
	if got, ref := normalizeResumed(final), normalizeResumed(want); !reflect.DeepEqual(got, ref) {
		t.Errorf("cross-engine resume diverges:\n%+v\nvs\n%+v", got, ref)
	}
}

func TestInterruptedResultRendersPartialTable(t *testing.T) {
	app, ok := apps.ByName("CLAMR")
	if !ok {
		t.Fatal("no CLAMR app")
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := resilience.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &inject.Campaign{
		App: app, Mode: inject.LetGoB, N: 50, Seed: 3, Workers: 2,
		Journal:  j,
		Observer: &cancelAfter{k: 5, cancel: cancel},
	}
	r, err := c.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Interrupted {
		t.Skip("workers drained the whole campaign before the cancel landed")
	}
	var buf bytes.Buffer
	if err := report.Campaigns(&buf, report.Text, []report.CampaignRow{report.Row(r)}); err != nil {
		t.Fatalf("partial result does not render: %v", err)
	}
	if buf.Len() == 0 {
		t.Error("empty partial table")
	}
}

// TestCorruptJournalRecordRefused: a journal line naming a class or a
// signal this program does not know is refused, both on resume (before
// any injection executes) and on merge, with the journal's path and the
// record's index in the error.
func TestCorruptJournalRecordRefused(t *testing.T) {
	app, ok := apps.ByName("CLAMR")
	if !ok {
		t.Fatal("no app CLAMR")
	}
	const n, bad = 8, 3
	c := inject.Campaign{App: app, Mode: inject.LetGoE, N: n, Seed: 11, Workers: 1}
	clean := filepath.Join(t.TempDir(), "clean.jsonl")
	j, err := resilience.Create(clean)
	if err != nil {
		t.Fatal(err)
	}
	run := c
	run.Journal = j
	if _, err := run.Run(); err != nil {
		t.Fatal(err)
	}
	lines, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, corrupt := range []func(*resilience.Record){
		func(r *resilience.Record) { r.Class = "Sideways" },
		func(r *resilience.Record) { r.Signal = "SIGWTF" },
	} {
		var out []byte
		for _, line := range bytes.SplitAfter(lines, []byte("\n")) {
			if len(line) == 0 {
				continue // after the last newline
			}
			var rec resilience.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("clean journal line %q does not parse", line)
			}
			if rec.Index == bad {
				corrupt(&rec)
				b, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				line = append(b, '\n')
			}
			out = append(out, line...)
		}
		path := filepath.Join(t.TempDir(), "corrupt.jsonl")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("journal %s index %d", path, bad)

		j, err := resilience.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		executed := &cancelAfter{}
		resume := c
		resume.Journal, resume.Observer = j, executed
		if _, err := resume.Run(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("resume over %q: err %v, want one naming %q", out, err, want)
		}
		if got := executed.count.Load(); got != 0 {
			t.Errorf("resume over a corrupt journal executed %d injections, want 0", got)
		}

		if j, err = resilience.Open(path); err != nil {
			t.Fatal(err)
		}
		merge := c
		if _, err := merge.Merge(j); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("merge: err %v, want one naming %q", err, want)
		}
	}
}
