package inject_test

// The lane scheduler's two structural properties, pinned on instruction
// counts so neither test can flake on wall clock: interleaved lanes carry
// equal post-injection work, and a plan's sites are resolved (and its
// golden recording charged) once however many units execute it.

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/engine"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/resilience"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// laneObserver records, per lane, the executions in the order the lane
// ran them.
type laneObserver struct {
	mu    sync.Mutex
	lanes map[int][]inject.Execution
}

func (o *laneObserver) Phase(string)             {}
func (o *laneObserver) Planned(int, inject.Plan) {}
func (o *laneObserver) Done(*inject.Result)      {}
func (o *laneObserver) Failed(string, error)     {}
func (o *laneObserver) Executed(e inject.Execution) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.lanes[e.Worker] = append(o.lanes[e.Worker], e)
}

// goldenWhens resolves every plan's dynamic index on a golden recording
// of the test's own, independent of the campaign's.
func goldenWhens(t *testing.T, app *apps.App, p *inject.PlannedCampaign) (*engine.Golden, []uint64) {
	t.Helper()
	prog, err := app.Compile()
	if err != nil {
		t.Fatal(err)
	}
	gold, err := engine.Record(prog, vm.Config{}, 0, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]pin.Site, len(p.Plans))
	for i, pl := range p.Plans {
		sites[i] = pl.Site
	}
	whens, err := gold.ResolveWhens(sites)
	if err != nil {
		t.Fatal(err)
	}
	return gold, whens
}

// laneForks is how many machine forks one lane takes to run the plans idx
// in dynamic-index order: one per injected run, plus one whenever a
// waypoint lies between the replay machine and the next site.
func laneForks(gold *engine.Golden, whens []uint64, idx []int) uint64 {
	order := append([]int(nil), idx...)
	sort.Slice(order, func(a, b int) bool { return whens[order[a]] < whens[order[b]] })
	forks, at, positioned := uint64(0), uint64(0), false
	for _, i := range order {
		if !positioned || gold.NearestRetired(whens[i]) > at {
			forks++
		}
		at, positioned = whens[i], true
		forks++
	}
	return forks
}

// TestLaneBalance checks that every fork-engine lane does about the same
// post-injection work — Σ(Retired − when), the instructions its injected
// runs executed past their sites, which is where a campaign's time goes —
// that each lane walks the golden timeline forward only, and that the
// lanes partition the unit. A contiguous split of the when-sorted order
// reads max/mean ≈ 1.5 at two lanes and ≈ 1.9 at eight.
func TestLaneBalance(t *testing.T) {
	const n = 400
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			c := &inject.Campaign{App: app, Mode: inject.LetGoE, N: n, Seed: 2017}
			p, err := c.PlanContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			unit, err := p.Shard(inject.ShardSpec{})
			if err != nil {
				t.Fatal(err)
			}
			_, whens := goldenWhens(t, app, p)
			for _, tc := range []struct {
				workers int
				bound   float64
			}{{2, 1.10}, {3, 1.10}, {8, 1.30}} {
				o := &laneObserver{lanes: map[int][]inject.Execution{}}
				c.Workers, c.Observer = tc.workers, o
				if _, err := c.ExecuteContext(context.Background(), p, unit); err != nil {
					t.Fatal(err)
				}
				if len(o.lanes) != tc.workers {
					t.Fatalf("W=%d: %d lanes ran", tc.workers, len(o.lanes))
				}
				seen := make([]bool, n)
				var total, maxWork uint64
				for w, execs := range o.lanes {
					var work, prev uint64
					for _, e := range execs {
						if seen[e.Index] {
							t.Errorf("W=%d: plan %d executed twice", tc.workers, e.Index)
						}
						seen[e.Index] = true
						if whens[e.Index] < prev {
							t.Errorf("W=%d lane %d: dynamic index moved back from %d to %d",
								tc.workers, w, prev, whens[e.Index])
						}
						prev = whens[e.Index]
						work += e.Retired - whens[e.Index]
					}
					total += work
					if work > maxWork {
						maxWork = work
					}
				}
				for i, ok := range seen {
					if !ok {
						t.Errorf("W=%d: plan %d ran on no lane", tc.workers, i)
					}
				}
				ratio := float64(maxWork) * float64(tc.workers) / float64(total)
				t.Logf("W=%d: max/mean lane work %.3f", tc.workers, ratio)
				if ratio > tc.bound {
					t.Errorf("W=%d: max/mean lane work %.3f exceeds %.2f", tc.workers, ratio, tc.bound)
				}
			}
		})
	}
}

// TestResolveOnce executes one plan the way a fabric worker does — 40
// units of 10, each into its own journal, here two at a time — and checks
// that the plan paid for one site-resolution replay and was charged one
// golden recording in total, and that the units' records merge into the
// whole-campaign unit's table.
func TestResolveOnce(t *testing.T) {
	const n, size = 400, 10
	app, ok := apps.ByName("SNAP")
	if !ok {
		t.Fatal("no SNAP app")
	}
	base := inject.Campaign{App: app, Mode: inject.LetGoE, N: n, Seed: 2017, Workers: 1}
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	hub := &obs.Hub{Reg: obs.NewRegistry()}
	base.Obs = hub
	p, err := base.PlanContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gold, whens := goldenWhens(t, app, p)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	// One recording's waypoints, then what each unit's single lane forks.
	wantForks := uint64(gold.Waypoints())
	if whole := wantForks + laneForks(gold, whens, all); want.EngineStats.Forks != whole {
		t.Errorf("whole-campaign unit reports %d forks, want %d", want.EngineStats.Forks, whole)
	}
	queue := make(chan []int, n/size)
	for lo := 0; lo < n; lo += size {
		queue <- all[lo : lo+size]
		wantForks += laneForks(gold, whens, all[lo:lo+size])
	}
	close(queue)
	var mu sync.Mutex
	var forks uint64
	merged := resilience.New()
	var wg sync.WaitGroup
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range queue {
				c := base // a Campaign carries its unit's journal
				c.Journal = resilience.New()
				unit, err := p.Unit(idx)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := c.ExecuteContext(context.Background(), p, unit)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				forks += res.EngineStats.Forks
				for _, rec := range c.Journal.Records() {
					if err := merged.Append(rec); err != nil {
						t.Error(err)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	resolutions := uint64(0)
	for _, h := range hub.Reg.Snapshot().Histograms {
		if h.Name == obs.SpanHistogram && h.Labels["span"] == "resolve_sites" {
			resolutions = h.Count
		}
	}
	if resolutions != 1 {
		t.Errorf("%d site-resolution replays for %d units, want 1", resolutions, n/size)
	}
	if forks != wantForks {
		t.Errorf("units report %d forks in total, want %d (the recording's %d waypoints charged once)",
			forks, wantForks, gold.Waypoints())
	}

	got, err := base.Merge(merged)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := normalizeResumed(got), normalizeResumed(want); !reflect.DeepEqual(g, w) {
		t.Errorf("40 units diverge from the whole-campaign unit:\n%+v\nvs\n%+v", g, w)
	}
	if g, w := renderTable(t, got), renderTable(t, want); g != w {
		t.Errorf("40 units render a different table:\n%s\nvs\n%s", g, w)
	}
}
