package inject

// Supervisor tests: harness faults (panics, stalls) inside the worker
// pool must never kill or hang a campaign. These live in the internal
// test package so they can plant faults via the beforeInjection hook.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/outcome"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

// quarantineEvents parses an event stream and returns its quarantined
// injection_executed payloads.
func quarantineEvents(t *testing.T, events *bytes.Buffer) []Execution {
	t.Helper()
	var out []Execution
	sc := bufio.NewScanner(events)
	sc.Buffer(make([]byte, 1<<20), 1<<20) // quarantine stacks are long lines
	for sc.Scan() {
		var env struct {
			Type string          `json:"type"`
			Ev   json.RawMessage `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("bad event line: %v", err)
		}
		if env.Type != "injection_executed" {
			continue
		}
		var e Execution
		if err := json.Unmarshal(env.Ev, &e); err != nil {
			t.Fatal(err)
		}
		if e.Quarantine != "" {
			out = append(out, e)
		}
	}
	return out
}

func counterValue(snap obs.Snapshot, name string, labels map[string]string) uint64 {
	var total uint64
outer:
	for _, c := range snap.Counters {
		if c.Name != name {
			continue
		}
		for k, v := range labels {
			if c.Labels[k] != v {
				continue outer
			}
		}
		total += c.Value
	}
	return total
}

func TestCampaignPanicRetryIsTransparent(t *testing.T) {
	// A single transient panic is retried; the campaign's result must be
	// indistinguishable from an undisturbed run.
	a := testApp(t)
	base := &Campaign{App: a, Mode: LetGoE, N: 24, Seed: 5, Workers: 2}
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	var fired atomic.Bool
	c := &Campaign{App: a, Mode: LetGoE, N: 24, Seed: 5, Workers: 2}
	c.beforeInjection = func(i int) {
		if i == 7 && !fired.Swap(true) {
			panic("synthetic transient harness fault")
		}
	}
	got, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("fault never planted")
	}
	if got.Counts != want.Counts {
		t.Errorf("counts diverge after retried panic:\n%+v\nvs\n%+v", got.Counts, want.Counts)
	}
	if q := got.Counts.By[outcome.HarnessFault] + got.Counts.By[outcome.CHang]; q != 0 {
		t.Errorf("retried panic still quarantined %d injections", q)
	}
}

func TestCampaignPanicQuarantineAndResume(t *testing.T) {
	for _, eng := range []Engine{EngineFork, EngineRerun} {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			a := testApp(t)
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			j, err := resilience.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			var events bytes.Buffer
			hub := &obs.Hub{Reg: obs.NewRegistry(), Em: obs.NewEmitter(&events)}
			const n = 24
			c := &Campaign{
				App: a, Mode: LetGoE, N: n, Seed: 5, Workers: 2, Engine: eng,
				Journal: j, Obs: hub,
			}
			// Panic on every attempt: retry fails too, so injection 7 is
			// quarantined as C-HarnessFault and the campaign moves on.
			c.beforeInjection = func(i int) {
				if i == 7 {
					panic("synthetic persistent harness fault")
				}
			}
			r, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if r.Completed != n || r.Interrupted {
				t.Fatalf("campaign did not complete: %+v", r)
			}
			if got := r.Counts.By[outcome.HarnessFault]; got != 1 {
				t.Fatalf("HarnessFault count = %d, want 1", got)
			}
			snap := hub.Reg.Snapshot()
			if v := counterValue(snap, "letgo_quarantine_total", map[string]string{"reason": "panic"}); v != 1 {
				t.Errorf("letgo_quarantine_total{reason=panic} = %d, want 1", v)
			}
			qs := quarantineEvents(t, &events)
			if len(qs) != 1 || qs[0].Index != 7 || qs[0].Quarantine != "panic" || qs[0].Class != "C-HarnessFault" {
				t.Fatalf("quarantine events = %+v", qs)
			}
			if !strings.Contains(qs[0].Stack, "synthetic persistent harness fault") {
				t.Errorf("stack not captured:\n%s", qs[0].Stack)
			}

			// The quarantined record resumes like any other: a fresh
			// campaign over the same journal restores all 24 injections
			// (stack and all) and executes nothing.
			j2, err := resilience.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			rec := &recordingObserver{}
			status := obs.NewCampaignStatus(nil)
			c2 := &Campaign{
				App: a, Mode: LetGoE, N: n, Seed: 5, Workers: 2, Engine: eng,
				Journal: j2, Observer: rec, Obs: &obs.Hub{Reg: obs.NewRegistry(), Status: status},
			}
			r2, err := c2.Run()
			if err != nil {
				t.Fatal(err)
			}
			if snap := status.Snapshot(); snap.Resumed != n || snap.Completed != n {
				t.Errorf("/status after resume: resumed=%d completed=%d, want %d", snap.Resumed, snap.Completed, n)
			}
			if r2.Resumed != n || rec.executed.Load() != 0 {
				t.Errorf("resume re-executed work: resumed=%d executed=%d", r2.Resumed, rec.executed.Load())
			}
			if r2.Counts != r.Counts {
				t.Errorf("resumed counts diverge:\n%+v\nvs\n%+v", r2.Counts, r.Counts)
			}
		})
	}
}

func TestCampaignWatchdogQuarantine(t *testing.T) {
	for _, eng := range []Engine{EngineFork, EngineRerun} {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			a := testApp(t)
			hub := &obs.Hub{Reg: obs.NewRegistry()}
			const n = 24
			c := &Campaign{
				App: a, Mode: LetGoE, N: n, Seed: 5, Workers: 2, Engine: eng,
				Watchdog: 25 * time.Millisecond, Obs: hub,
			}
			// Injection 3 stalls far past the watchdog on both attempts'
			// worth of patience; everything else is instant.
			c.beforeInjection = func(i int) {
				if i == 3 {
					time.Sleep(500 * time.Millisecond)
				}
			}
			start := time.Now()
			r, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if r.Completed != n || r.Interrupted {
				t.Fatalf("campaign did not complete: %+v", r)
			}
			if got := r.Counts.By[outcome.CHang]; got != 1 {
				t.Fatalf("C-Hang count = %d, want 1 (counts %+v)", got, r.Counts)
			}
			snap := hub.Reg.Snapshot()
			if v := counterValue(snap, "letgo_watchdog_timeouts_total", nil); v != 1 {
				t.Errorf("letgo_watchdog_timeouts_total = %d, want 1", v)
			}
			// The stalled injection must not have serialized the campaign
			// behind its full sleep more than once.
			if el := time.Since(start); el > 5*time.Second {
				t.Errorf("campaign took %v; watchdog did not unblock the worker", el)
			}
		})
	}
}

func TestSuperviseErrorsPassThrough(t *testing.T) {
	// Genuine campaign errors are not retried and not quarantined.
	calls := 0
	_, reason, _, err := supervise(0, func() (int, error) {
		calls++
		return 0, errTestAccept
	})
	if calls != 1 || reason != "" || err != errTestAccept {
		t.Errorf("supervise(error body): calls=%d reason=%q err=%v", calls, reason, err)
	}
}

// TestOneRecordReachesEverySink: every executed injection, quarantined
// ones included, reaches the journal, the Observer and the
// injection_executed event as one record, equal field for field except
// for the lane that ran it (Worker) and the journal's writer identity
// (Writer, "1/2" on this shard's journal lines).
func TestOneRecordReachesEverySink(t *testing.T) {
	a := testApp(t)
	j := resilience.New()
	log := &executionLog{byIx: map[int]Execution{}}
	var events bytes.Buffer
	c := &Campaign{
		App: a, Mode: LetGoE, N: 24, Seed: 5, Workers: 2, ShardSpec: ShardSpec{Index: 1, Count: 2},
		Journal: j, Observer: log, Obs: &obs.Hub{Em: obs.NewEmitter(&events)},
	}
	// The first injection to start panics on every attempt, so one record
	// carries a quarantine reason and a stack.
	var victim atomic.Int64 // 1 + its plan index
	c.beforeInjection = func(i int) {
		victim.CompareAndSwap(0, int64(i)+1)
		if victim.Load() == int64(i)+1 {
			panic("synthetic persistent harness fault")
		}
	}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	journaled := map[int]resilience.Record{}
	for _, rec := range j.Records() {
		rec.Writer = ""
		journaled[rec.Index] = rec
	}
	emitted := map[int]resilience.Record{}
	sc := bufio.NewScanner(&events)
	sc.Buffer(make([]byte, 1<<20), 1<<20) // quarantine stacks are long lines
	for sc.Scan() {
		var env struct {
			Type string    `json:"type"`
			Ev   Execution `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("bad event line: %v", err)
		}
		if env.Type != "injection_executed" {
			continue
		}
		if _, dup := emitted[env.Ev.Index]; dup {
			t.Errorf("index %d has two injection_executed events", env.Ev.Index)
		}
		emitted[env.Ev.Index] = env.Ev.Record
	}
	if len(log.byIx) != r.Planned || len(journaled) != r.Planned || len(emitted) != r.Planned {
		t.Fatalf("observer %d, journal %d, events %d executions; the shard owns %d",
			len(log.byIx), len(journaled), len(emitted), r.Planned)
	}
	quarantined := 0
	for i, e := range log.byIx {
		if journaled[i] != e.Record || emitted[i] != e.Record {
			t.Errorf("index %d:\nobserver %+v\njournal  %+v\nevent    %+v", i, e.Record, journaled[i], emitted[i])
		}
		if e.Quarantine == quarPanic && strings.Contains(e.Stack, "synthetic persistent harness fault") {
			quarantined++
		}
	}
	if quarantined != 1 {
		t.Errorf("%d quarantined records with a stack, want 1", quarantined)
	}
}
