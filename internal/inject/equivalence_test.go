package inject_test

// The fork-replay engine's hard contract: for a fixed seed, campaign
// results are byte-identical to the rerun engine's, for every built-in
// app, every supervision mode, and any worker count. This is the
// acceptance test for that contract — it compares the full Result
// (counts, liveness splits, signal histograms, crash latencies, metrics)
// and the rendered report tables across the 5-way engine x workers grid.

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/report"
)

// normalize strips the diagnostic engine stats (documented as excluded
// from the equivalence contract) so results can be compared wholesale.
func normalize(r *inject.Result) inject.Result {
	n := *r
	n.EngineStats = inject.EngineStats{}
	return n
}

// renderTable renders the result the way cmd/letgo-inject does.
func renderTable(t *testing.T, r *inject.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.Campaigns(&buf, report.Text, []report.CampaignRow{report.Row(r)}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestEngineEquivalenceAllAppsAllModes(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 20 // the fewest at which a run of every app (HPL last) converges
	}
	for _, app := range apps.All() {
		for _, mode := range []inject.Mode{inject.NoLetGo, inject.LetGoB, inject.LetGoE} {
			app, mode := app, mode
			t.Run(app.Name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				type cfg struct {
					engine  inject.Engine
					workers int
				}
				grid := []cfg{
					{inject.EngineFork, 1},
					{inject.EngineFork, 3}, // a lane count that does not divide N
					{inject.EngineFork, 8},
					{inject.EngineRerun, 1},
					{inject.EngineRerun, 8},
				}
				var ref inject.Result
				var refTable string
				for gi, g := range grid {
					c := &inject.Campaign{
						App: app, Mode: mode, N: n, Seed: 1234,
						Workers: g.workers, Engine: g.engine,
					}
					r, err := c.Run()
					if err != nil {
						t.Fatalf("engine=%v workers=%d: %v", g.engine, g.workers, err)
					}
					// The fork engine stops runs that reconverge with the
					// golden run early; rerun never does, which makes this
					// grid the proof that every such stop is exact. Keep the
					// path demonstrably live.
					switch conv := r.EngineStats.Converged; {
					case g.engine == inject.EngineRerun && conv != 0:
						t.Errorf("rerun engine short-circuited %d runs", conv)
					case g.engine == inject.EngineFork && mode == inject.LetGoE && conv == 0:
						t.Errorf("engine=fork workers=%d: no run of %d converged with the golden run", g.workers, n)
					}
					// A repair-safe site is certified unable to reach the
					// acceptance check, so no run injected there may end
					// in an SDC.
					if f := inject.SDCFrac(&r.SafeSite); f != 0 {
						t.Errorf("engine=%v workers=%d: SDC fraction %v at repair-safe sites, want 0", g.engine, g.workers, f)
					}
					got := normalize(r)
					table := renderTable(t, r)
					if gi == 0 {
						ref, refTable = got, table
						continue
					}
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("engine=%v workers=%d: result diverges from fork/1:\n%+v\nvs\n%+v",
							g.engine, g.workers, got, ref)
					}
					if table != refTable {
						t.Errorf("engine=%v workers=%d: rendered table diverges:\n%s\nvs\n%s",
							g.engine, g.workers, table, refTable)
					}
				}
			})
		}
	}
}

func TestEngineStatsReportSavings(t *testing.T) {
	app, ok := apps.ByName("CLAMR")
	if !ok {
		t.Fatal("no CLAMR app")
	}
	c := &inject.Campaign{App: app, Mode: inject.LetGoE, N: 60, Seed: 5}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := r.EngineStats
	if s.Engine != "fork" {
		t.Fatalf("default engine = %q, want fork", s.Engine)
	}
	if s.Waypoints == 0 || s.Forks == 0 {
		t.Errorf("stats report no forking activity: %+v", s)
	}
	// The whole point: positioning replays far fewer prefix instructions
	// than rerunning every injection from PC 0 would.
	if s.InstrsSaved == 0 {
		t.Errorf("fork engine saved nothing: %+v", s)
	}
	if s.InstrsReplayed >= s.InstrsSaved {
		t.Logf("note: replayed %d >= saved %d (tiny app or sparse plans)", s.InstrsReplayed, s.InstrsSaved)
	}

	rr := &inject.Campaign{App: app, Mode: inject.LetGoE, N: 60, Seed: 5, Engine: inject.EngineRerun}
	r2, err := rr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s2 := r2.EngineStats; s2 != (inject.EngineStats{Engine: "rerun"}) {
		t.Errorf("rerun engine stats should be empty, got %+v", s2)
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want inject.Engine
		ok   bool
	}{
		{"fork", inject.EngineFork, true},
		{"rerun", inject.EngineRerun, true},
		{"", inject.EngineFork, true},
		{"warp", 0, false},
	} {
		got, err := inject.ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
}
