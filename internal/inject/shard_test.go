package inject_test

// Sharded-pipeline acceptance: a campaign split into shards — each shard
// an independent Plan+Execute process journaling its own work unit, one
// of them killed mid-flight and resumed — must merge to a Result and a
// rendered table byte-identical to the single-process run, for every
// built-in app, every supervision mode, and both engines. This is the
// contract that lets one campaign span many letgo-inject processes with
// no coordination beyond a shared seed and a pile of journal files.

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

func TestParseShardSpec(t *testing.T) {
	valid := map[string]inject.ShardSpec{
		"1/1": {Index: 1, Count: 1},
		"1/3": {Index: 1, Count: 3},
		"3/3": {Index: 3, Count: 3},
	}
	for in, want := range valid {
		got, err := inject.ParseShardSpec(in)
		if err != nil {
			t.Errorf("ParseShardSpec(%q): unexpected error %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseShardSpec(%q) = %+v, want %+v", in, got, want)
		}
		if got.String() != in {
			t.Errorf("ParseShardSpec(%q).String() = %q", in, got.String())
		}
	}
	invalid := []string{
		"", "1", "1/2/3", "a/b", "1/b", "a/3",
		"0/3", "4/3", "1/0", "0/0", "-1/3", "1/-3", " 1/3", "1/3 ",
	}
	for _, in := range invalid {
		if got, err := inject.ParseShardSpec(in); err == nil {
			t.Errorf("ParseShardSpec(%q) = %+v, want error", in, got)
		}
	}
}

func TestShardSpecValidate(t *testing.T) {
	for _, s := range []inject.ShardSpec{{1, 1}, {1, 4}, {4, 4}} {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", s, err)
		}
	}
	for _, s := range []inject.ShardSpec{{0, 3}, {4, 3}, {1, 0}, {-1, 3}, {1, -1}} {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%v): want error", s)
		}
	}
	if !(inject.ShardSpec{}).IsZero() {
		t.Error("zero spec is not IsZero")
	}
	if (inject.ShardSpec{}).String() != "" {
		t.Errorf("zero spec String() = %q, want empty", (inject.ShardSpec{}).String())
	}
}

// TestShardPartitionDisjointCover checks the work-unit algebra directly:
// for any shard count, the units partition [0, n) — disjoint, complete,
// and deterministic.
func TestShardPartitionDisjointCover(t *testing.T) {
	const n = 47 // deliberately not a multiple of any shard count
	p := &inject.PlannedCampaign{Plans: make([]inject.Plan, n)}
	for count := 1; count <= 5; count++ {
		owned := make([]int, n) // how many units claim each index
		for idx := 1; idx <= count; idx++ {
			spec := inject.ShardSpec{Index: idx, Count: count}
			u, err := p.Shard(spec)
			if err != nil {
				t.Fatalf("Shard(%v): %v", spec, err)
			}
			if u.Spec != spec {
				t.Fatalf("unit spec %v, want %v", u.Spec, spec)
			}
			for _, i := range u.Indices {
				if !u.Has(i) {
					t.Fatalf("unit %v owns index %d but Has(%d) is false", spec, i, i)
				}
				owned[i]++
			}
		}
		for i, c := range owned {
			if c != 1 {
				t.Fatalf("count=%d: index %d claimed by %d units, want exactly 1", count, i, c)
			}
		}
	}
	// The zero spec is the whole campaign.
	u, err := p.Shard(inject.ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if u.Size() != n {
		t.Fatalf("zero-spec unit size %d, want %d", u.Size(), n)
	}
	// Out-of-range specs are rejected at the partition layer too.
	if _, err := p.Shard(inject.ShardSpec{Index: 6, Count: 5}); err == nil {
		t.Error("Shard(6/5) did not error")
	}
}

// runShard executes one work unit of the campaign template into its own
// journal file. When interrupt is true the shard is cancelled after two
// classified injections and then resumed from its journal — the sharded
// analogue of the kill-and-resume acceptance test.
func runShard(t *testing.T, c inject.Campaign, spec inject.ShardSpec, path string, interrupt bool) *inject.Result {
	t.Helper()
	sc := c
	sc.ShardSpec = spec
	j, err := resilience.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sc.Journal = j
	if interrupt {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sc.Observer = &cancelAfter{k: 2, cancel: cancel}
		partial, err := sc.RunContext(ctx)
		if err != nil {
			t.Fatalf("shard %s interrupted run: %v", spec, err)
		}
		if partial.Completed < 2 {
			t.Fatalf("shard %s completed %d < 2 before cancel", spec, partial.Completed)
		}
		j2, err := resilience.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc = c
		sc.ShardSpec = spec
		sc.Journal = j2
	}
	r, err := sc.Run()
	if err != nil {
		t.Fatalf("shard %s: %v", spec, err)
	}
	if r.Shard != spec.String() {
		t.Errorf("shard %s result carries Shard=%q", spec, r.Shard)
	}
	if r.Interrupted {
		t.Errorf("shard %s finished Interrupted: %+v", spec, r)
	}
	if r.Completed != r.Planned {
		t.Errorf("shard %s completed %d of %d planned", spec, r.Completed, r.Planned)
	}
	return r
}

func TestShardedMergeEquivalenceAllAppsAllModes(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 12
	}
	const shards = 3
	for _, app := range apps.All() {
		for _, mode := range []inject.Mode{inject.NoLetGo, inject.LetGoB, inject.LetGoE} {
			for _, eng := range []inject.Engine{inject.EngineFork, inject.EngineRerun} {
				app, mode, eng := app, mode, eng
				t.Run(app.Name+"/"+mode.String()+"/"+eng.String(), func(t *testing.T) {
					t.Parallel()
					c := inject.Campaign{
						App: app, Mode: mode, N: n, Seed: 4321,
						Workers: 4, Engine: eng,
					}
					base := c
					want, err := base.Run()
					if err != nil {
						t.Fatal(err)
					}

					dir := t.TempDir()
					paths := make([]string, 0, shards)
					planned := 0
					for i := 1; i <= shards; i++ {
						spec := inject.ShardSpec{Index: i, Count: shards}
						path := filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
						paths = append(paths, path)
						// Shard 2 simulates a kill-and-resume mid-unit.
						r := runShard(t, c, spec, path, i == 2)
						planned += r.Planned
					}
					if planned != n {
						t.Fatalf("shards planned %d injections in total, want %d", planned, n)
					}

					merged, collisions, err := resilience.MergeFiles(paths)
					if err != nil {
						t.Fatal(err)
					}
					for _, col := range collisions {
						if !col.Identical {
							t.Errorf("conflicting shard records: %s", col)
						}
					}
					mc := c
					got, err := mc.Merge(merged)
					if err != nil {
						t.Fatalf("merge: %v", err)
					}
					if got.Interrupted {
						t.Fatalf("merged result Interrupted — journals incomplete: %+v", got)
					}
					if got.Resumed != n {
						t.Errorf("merged result restored %d records, want %d", got.Resumed, n)
					}
					if g, r := normalizeResumed(got), normalizeResumed(want); !reflect.DeepEqual(g, r) {
						t.Errorf("merged result diverges from single-process run:\n%+v\nvs\n%+v", g, r)
					}
					if g, r := renderTable(t, got), renderTable(t, want); g != r {
						t.Errorf("merged table diverges from single-process run:\n%s\nvs\n%s", g, r)
					}
				})
			}
		}
	}
}

// TestShardWriterIdentity pins the provenance contract: every record a
// shard journals carries its shard spec as the writer identity, and the
// merged journal reports the distinct identities.
func TestShardWriterIdentity(t *testing.T) {
	app, ok := apps.ByName("CLAMR")
	if !ok {
		t.Fatal("no CLAMR app")
	}
	c := inject.Campaign{App: app, Mode: inject.NoLetGo, N: 9, Seed: 7, Workers: 2}
	dir := t.TempDir()
	paths := []string{
		filepath.Join(dir, "s1.jsonl"),
		filepath.Join(dir, "s3.jsonl"),
	}
	runShard(t, c, inject.ShardSpec{Index: 1, Count: 3}, paths[0], false)
	status := obs.NewCampaignStatus(nil)
	c.Obs = &obs.Hub{Reg: obs.NewRegistry(), Status: status}
	runShard(t, c, inject.ShardSpec{Index: 3, Count: 3}, paths[1], false)
	c.Obs = nil
	if snap := status.Snapshot(); snap.Shard != "3/3" || snap.ShardPlanned != 3 {
		t.Errorf("/status shard = %q planned %d, want 3/3 planned 3", snap.Shard, snap.ShardPlanned)
	}

	j1, err := resilience.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	recs := j1.Records()
	if len(recs) == 0 {
		t.Fatal("shard 1/3 journal is empty")
	}
	for _, r := range recs {
		if r.Writer != "1/3" {
			t.Errorf("record %d carries writer %q, want %q", r.Index, r.Writer, "1/3")
		}
		if r.Index%3 != 0 {
			t.Errorf("shard 1/3 journaled foreign index %d", r.Index)
		}
	}

	merged, collisions, err := resilience.MergeFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(collisions) != 0 {
		t.Errorf("disjoint shards produced collisions: %v", collisions)
	}
	if got, want := merged.Writers(), []string{"1/3", "3/3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("merged writers = %v, want %v", got, want)
	}
	// Merging a partial shard set yields an Interrupted partial result,
	// never a fabricated complete one.
	mc := c
	r, err := mc.Merge(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Interrupted {
		t.Error("merge over 2 of 3 shards was not marked Interrupted")
	}
	if r.Completed != 6 {
		t.Errorf("merge over shards 1,3 of 9 completed %d, want 6", r.Completed)
	}
}

// TestMergeAgreesWithRunOnPreparedFacts names the plan-level facts a
// Result carries beyond its journal records: Run and Merge both take them
// from the one prepare step, so a Merge over the journal a Run wrote must
// report the same — and non-zero — values.
func TestMergeAgreesWithRunOnPreparedFacts(t *testing.T) {
	app, ok := apps.ByName("LULESH")
	if !ok {
		t.Fatal("no LULESH app")
	}
	j, err := resilience.Create(filepath.Join(t.TempDir(), "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	c := inject.Campaign{App: app, Mode: inject.LetGoE, N: 8, Seed: 3, Workers: 2, Journal: j}
	ran, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	mc := inject.Campaign{App: app, Mode: inject.LetGoE, N: 8, Seed: 3}
	merged, err := mc.Merge(j)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Interrupted || merged.Completed != 8 {
		t.Fatalf("merge over a complete journal: %+v", merged)
	}
	type facts struct {
		GoldenRetired, DerivedBytes, FullBytes uint64
		AnalysisRegions, AnalysisLiveRegions   int
	}
	factsOf := func(r *inject.Result) facts {
		return facts{r.GoldenRetired, r.DerivedBytes, r.FullBytes, r.AnalysisRegions, r.AnalysisLiveRegions}
	}
	got, want := factsOf(merged), factsOf(ran)
	if got != want {
		t.Errorf("merge reports %+v, the run that wrote the journal %+v", got, want)
	}
	if want.GoldenRetired == 0 || want.DerivedBytes == 0 || want.FullBytes == 0 || want.AnalysisRegions == 0 {
		t.Errorf("prepared facts missing from the run's result: %+v", want)
	}
}
