package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/report"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

// distributionCampaigns is CLAMR and HPL × LetGo-B/E at N = 40, fresh
// for every session.
func distributionCampaigns(t *testing.T) []*inject.Campaign {
	t.Helper()
	var cs []*inject.Campaign
	for _, name := range []string{"CLAMR", "HPL"} {
		app, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("no app %s", name)
		}
		for _, mode := range []inject.Mode{inject.LetGoB, inject.LetGoE} {
			cs = append(cs, &inject.Campaign{App: app, Mode: mode, N: 40, Seed: 4321, Workers: 2})
		}
	}
	return cs
}

// runSession runs every campaign through s and renders one text table.
func runSession(t *testing.T, ctx context.Context, s *Session) string {
	t.Helper()
	var rows []report.CampaignRow
	for _, c := range distributionCampaigns(t) {
		r, err := s.Run(ctx, c)
		if err != nil {
			t.Fatalf("%s/%v: %v", c.App.Name, c.Mode, err)
		}
		rows = append(rows, report.Row(r))
	}
	var buf bytes.Buffer
	if err := report.Campaigns(&buf, report.Text, rows); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDistributionsRenderOneTable runs the same campaigns through every
// setting, shaped like bench's workloads — local; three Shard i/3 sessions
// into their own journals, then a Merge over the three; a Coordinate
// session with two in-process Workers — and requires one table.
func TestDistributionsRenderOneTable(t *testing.T) {
	ctx := context.Background()
	local, err := Distribution{}.Open(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := runSession(t, ctx, local)
	local.Close()

	dir := t.TempDir()
	var paths []string
	for i := 1; i <= 3; i++ {
		path := filepath.Join(dir, fmt.Sprintf("s%d.jsonl", i))
		paths = append(paths, path)
		j, err := resilience.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		shard, err := Distribution{Shard: inject.ShardSpec{Index: i, Count: 3}}.Open(j, nil)
		if err != nil {
			t.Fatal(err)
		}
		runSession(t, ctx, shard)
		shard.Close()
	}
	merge, err := Distribution{Merge: paths}.Open(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := runSession(t, ctx, merge); got != want {
		t.Errorf("merged table diverges from local:\n%s\nvs\n%s", got, want)
	}
	journals, writers := merge.Merged()
	if journals != 3 || !reflect.DeepEqual(writers, []string{"1/3", "2/3", "3/3"}) {
		t.Errorf("merge provenance = %d journals, writers %v; want 3 and [1/3 2/3 3/3]", journals, writers)
	}
	merge.Close()

	fleet, err := Distribution{Coordinate: "127.0.0.1:0", Options: Options{UnitSize: 10}}.Open(resilience.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 4*time.Minute)
	defer cancel()
	workerErrs := make(chan error, 2)
	for w := 1; w <= 2; w++ {
		wk := &Worker{Base: "http://" + fleet.Addr(), Name: fmt.Sprintf("w%d", w), Workers: 1}
		go func() { workerErrs <- wk.Run(wctx) }()
	}
	if got := runSession(t, wctx, fleet); got != want {
		t.Errorf("coordinated table diverges from local:\n%s\nvs\n%s", got, want)
	}
	fleet.Close()
	for w := 0; w < 2; w++ {
		if err := <-workerErrs; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// TestDistributionOpenRefusals pins what Open refuses: a shard or fleet
// without a journal, a merge given one, and shard journals that disagree
// about an injection — the last after reporting the merge's shape.
func TestDistributionOpenRefusals(t *testing.T) {
	dir := t.TempDir()
	key := resilience.Key{App: "CLAMR", Mode: "letgo-e", N: 4, Seed: 11, Model: "bitflip"}
	var paths []string
	for i, class := range []string{"Benign", "SDC"} {
		path := filepath.Join(dir, fmt.Sprintf("s%d.jsonl", i+1))
		paths = append(paths, path)
		j, err := resilience.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		j.Writer = fmt.Sprintf("%d/2", i+1)
		if err := j.Append(resilience.Record{Key: key, Index: 1, Class: class}); err != nil {
			t.Fatal(err)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		d       Distribution
		journal *resilience.Journal
		wantErr string
	}{
		{"shard without journal", Distribution{Shard: inject.ShardSpec{Index: 1, Count: 3}}, nil, "-shard requires -journal"},
		{"fleet without journal", Distribution{Coordinate: "127.0.0.1:0"}, nil, "-coordinate requires -journal"},
		{"merge given a journal", Distribution{Merge: paths}, resilience.New(), "takes no -journal"},
	} {
		if _, err := tc.d.Open(tc.journal, nil); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Open = %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}

	hub := &obs.Hub{Reg: obs.NewRegistry(), Status: obs.NewCampaignStatus(nil)}
	var collided []resilience.Collision
	_, err := Distribution{Merge: paths, Options: Options{Hub: hub}}.Open(nil, func(c resilience.Collision) {
		collided = append(collided, c)
	})
	if err == nil || !strings.Contains(err.Error(), "1 conflicting shard record(s)") {
		t.Fatalf("conflicting merge: Open = %v, want a refusal naming 1 conflicting record", err)
	}
	if len(collided) != 1 || collided[0].Identical {
		t.Errorf("collisions reported = %+v, want one conflicting", collided)
	}
	if got := hub.Counter("letgo_merge_journals_total").Value(); got != 2 {
		t.Errorf("letgo_merge_journals_total = %d, want 2", got)
	}
	if got := hub.Counter("letgo_merge_collisions_total", "kind", "conflicting").Value(); got != 1 {
		t.Errorf("conflicting collisions counter = %d, want 1", got)
	}
	if st := hub.Status.Snapshot(); st.MergeJournals != 2 || st.MergeConflictingCollision != 1 {
		t.Errorf("/status merge fields = %d journals, %d conflicting; want 2 and 1", st.MergeJournals, st.MergeConflictingCollision)
	}
}

// TestDistributionTelemetry: a fleet's injection telemetry reaches the
// workers' own sinks. Two in-process workers, each with its own registry
// and event stream, execute a coordinated campaign: together they count
// every injection once in letgo_injections_total, emit exactly one
// injection_executed per shipped index, and end every inject phase with
// exactly one close record. The default lease TTL lets no unit be stolen.
func TestDistributionTelemetry(t *testing.T) {
	app, ok := apps.ByName("CLAMR")
	if !ok {
		t.Fatal("no app CLAMR")
	}
	const n = 40
	journal := resilience.New()
	fleet, err := Distribution{Coordinate: "127.0.0.1:0", Options: Options{UnitSize: 10}}.Open(journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	type sink struct {
		reg    *obs.Registry
		events bytes.Buffer
	}
	sinks := []*sink{{reg: obs.NewRegistry()}, {reg: obs.NewRegistry()}}
	workerErrs := make(chan error, len(sinks))
	for w, s := range sinks {
		wk := &Worker{
			Base: "http://" + fleet.Addr(), Name: fmt.Sprintf("w%d", w+1), Workers: 1,
			Hub: &obs.Hub{Reg: s.reg, Em: obs.NewEmitter(&s.events)},
		}
		go func() { workerErrs <- wk.Run(ctx) }()
	}
	r, err := fleet.Run(ctx, &inject.Campaign{App: app, Mode: inject.LetGoE, N: n, Seed: 4321, Workers: 1})
	fleet.Close()
	for range sinks {
		if err := <-workerErrs; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != n {
		t.Fatalf("coordinated campaign completed %d of %d", r.Completed, n)
	}

	var injections uint64
	executed := map[int]int{}
	units := 0 // inject phases: one per executed unit
	for w, s := range sinks {
		for _, c := range s.reg.Snapshot().Counters {
			if c.Name == "letgo_injections_total" {
				injections += c.Value
			}
		}
		open := false
		sc := bufio.NewScanner(&s.events)
		for sc.Scan() {
			var env struct {
				Type  string `json:"type"`
				Event struct {
					Phase string `json:"phase"`
					Index int    `json:"index"`
				} `json:"event"`
			}
			if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			switch env.Type {
			case "phase":
				if env.Event.Phase == inject.PhaseInject {
					if open {
						t.Errorf("worker %d: an inject phase began before the last one closed", w+1)
					}
					open = true
					units++
				}
			case "injection_executed":
				executed[env.Event.Index]++
			case "campaign_done", "campaign_failed":
				if !open {
					t.Errorf("worker %d: %s with no inject phase open", w+1, env.Type)
				}
				open = false
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if open {
			t.Errorf("worker %d: the stream ends inside an inject phase", w+1)
		}
	}
	if units != n/10 {
		t.Errorf("the workers' streams hold %d inject phases, want one per unit (%d)", units, n/10)
	}
	if injections != n {
		t.Errorf("letgo_injections_total sums to %d over the workers, want %d", injections, n)
	}
	shipped := map[int]bool{}
	for _, rec := range journal.Records() {
		shipped[rec.Index] = true
	}
	if len(shipped) != n {
		t.Errorf("%d indices shipped, want %d", len(shipped), n)
	}
	for i := range shipped {
		if executed[i] != 1 {
			t.Errorf("shipped index %d has %d injection_executed events, want 1", i, executed[i])
		}
	}
}

// TestWorkerCountsCampaignsOnce: a fabric worker's /status counts one
// coordinated campaign as one, not once per unit it executed (4 here).
func TestWorkerCountsCampaignsOnce(t *testing.T) {
	app, ok := apps.ByName("CLAMR")
	if !ok {
		t.Fatal("no app CLAMR")
	}
	const n = 40
	fleet, err := Distribution{Coordinate: "127.0.0.1:0", Options: Options{UnitSize: 10}}.Open(resilience.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	status := obs.NewCampaignStatus(nil)
	wk := &Worker{Base: "http://" + fleet.Addr(), Name: "w1", Workers: 1, Hub: &obs.Hub{Status: status}}
	workerErr := make(chan error, 1)
	go func() { workerErr <- wk.Run(ctx) }()
	r, err := fleet.Run(ctx, &inject.Campaign{App: app, Mode: inject.LetGoE, N: n, Seed: 4321, Workers: 1})
	fleet.Close()
	if werr := <-workerErr; werr != nil {
		t.Errorf("worker: %v", werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != n {
		t.Fatalf("coordinated campaign completed %d of %d", r.Completed, n)
	}
	if snap := status.Snapshot(); snap.CampaignsDone != 1 {
		t.Errorf("worker campaigns_done = %d after one campaign in %d units, want 1", snap.CampaignsDone, n/10)
	}
}

// TestPrepareOncePerCampaign: every setting compiles, analyses and runs
// the golden execution of a campaign once per process. The campaign's own
// event stream holds exactly one golden phase on the local run, on each
// shard, on the merge and on the coordinator, which renders from the plan
// it published instead of preparing again.
func TestPrepareOncePerCampaign(t *testing.T) {
	app, ok := apps.ByName("CLAMR")
	if !ok {
		t.Fatal("no app CLAMR")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	goldens := func(setting string, s *Session) {
		t.Helper()
		var events bytes.Buffer
		c := &inject.Campaign{App: app, Mode: inject.LetGoE, N: 20, Seed: 4321, Workers: 1, Obs: &obs.Hub{Em: obs.NewEmitter(&events)}}
		if _, err := s.Run(ctx, c); err != nil {
			t.Fatalf("%s: %v", setting, err)
		}
		var phases []string
		golden := 0
		sc := bufio.NewScanner(&events)
		for sc.Scan() {
			var env struct {
				Type  string `json:"type"`
				Event struct {
					Phase string `json:"phase"`
				} `json:"event"`
			}
			if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			if env.Type == "phase" {
				phases = append(phases, env.Event.Phase)
				if env.Event.Phase == inject.PhaseGolden {
					golden++
				}
			}
		}
		if golden != 1 {
			t.Errorf("%s: %d golden phases (phases %v), want 1", setting, golden, phases)
		}
	}

	local, err := Distribution{}.Open(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	goldens("local", local)

	dir := t.TempDir()
	var paths []string
	for i := 1; i <= 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("s%d.jsonl", i))
		paths = append(paths, path)
		j, err := resilience.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		shard, err := Distribution{Shard: inject.ShardSpec{Index: i, Count: 2}}.Open(j, nil)
		if err != nil {
			t.Fatal(err)
		}
		goldens(fmt.Sprintf("shard %d/2", i), shard)
	}
	merge, err := Distribution{Merge: paths}.Open(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	goldens("merge", merge)

	fleet, err := Distribution{Coordinate: "127.0.0.1:0", Options: Options{UnitSize: 10}}.Open(resilience.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	workerErr := make(chan error, 1)
	wk := &Worker{Base: "http://" + fleet.Addr(), Name: "w1", Workers: 1}
	go func() { workerErr <- wk.Run(ctx) }()
	goldens("coordinate", fleet)
	fleet.Close()
	if err := <-workerErr; err != nil {
		t.Errorf("worker: %v", err)
	}
}
