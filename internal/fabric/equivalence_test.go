package fabric

// The fabric's headline contract: a campaign distributed over a fleet of
// workers — one of which dies holding a lease and one of which straggles
// (stops heartbeating and ships late) — renders a table byte-identical
// to the same campaign run in a single process. The dead worker's unit
// must be observed expiring and re-dispatched, the straggler's late
// shipment must merge as benign duplicates, and the merged Result must
// equal the single-process one after stripping the documented
// diagnostics (engine stats, resume counts).

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/report"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

// normalizeResult strips the diagnostics excluded from the equivalence
// contract: engine stats (documented) and the resume counter (a merge
// restores every record from the journal by construction).
func normalizeResult(r *inject.Result) inject.Result {
	n := *r
	n.EngineStats = inject.EngineStats{}
	n.Resumed = 0
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

// leaseAndVanish plays a worker that crashes while holding a lease: it
// polls until the campaign is published, takes one unit, and never
// speaks again. Its lease can only leave the system by expiring, so the
// coordinator is guaranteed to exercise the re-dispatch path.
func leaseAndVanish(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	gen := 0
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/fabric/campaign?worker=crashed")
		if err != nil {
			t.Fatal(err)
		}
		var camp CampaignResponse
		err = json.NewDecoder(resp.Body).Decode(&camp)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if camp.Spec != nil {
			gen = camp.Spec.Generation
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if gen == 0 {
		t.Fatal("campaign never published to the crashing worker")
	}
	for time.Now().Before(deadline) {
		body, _ := json.Marshal(LeaseRequest{Worker: "crashed", Generation: gen})
		resp, err := http.Post(base+"/fabric/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var lr LeaseResponse
		err = json.NewDecoder(resp.Body).Decode(&lr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if lr.Unit != nil {
			return // crash: hold the lease forever
		}
		if lr.Done || lr.Stale {
			t.Fatal("campaign ended before the crashing worker could lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("crashing worker never obtained a lease")
}

func TestCoordinatedKillAndStealEquivalence(t *testing.T) {
	n := 18
	all := apps.All()
	modes := []inject.Mode{inject.NoLetGo, inject.LetGoB, inject.LetGoE}
	if testing.Short() {
		n = 12
		all = all[:2]
		modes = []inject.Mode{inject.LetGoE}
	}
	const ttl = 500 * time.Millisecond
	for _, app := range all {
		for _, mode := range modes {
			app, mode := app, mode
			t.Run(app.Name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				campaign := func() *inject.Campaign {
					return &inject.Campaign{App: app, Mode: mode, N: n, Seed: 4321}
				}

				// Single-process reference.
				ref := campaign()
				ref.Engine, ref.Workers = inject.EngineFork, 4
				refRes, err := ref.Run()
				if err != nil {
					t.Fatal(err)
				}
				refNorm, refTable := normalizeResult(refRes), renderTable(t, refRes)

				// The coordinator is the Coordinate setting; the fleet
				// below is hand-built.
				journal := resilience.New()
				fleet, err := Distribution{Coordinate: "127.0.0.1:0",
					Options: Options{LeaseTTL: ttl, UnitSize: 3}}.Open(journal, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer fleet.Close()
				base := "http://" + fleet.Addr()

				ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
				defer cancel()
				var mergedRes *inject.Result
				runDone := make(chan error, 1)
				go func() {
					var err error
					mergedRes, err = fleet.Run(ctx, campaign())
					runDone <- err
				}()

				// The crashed worker leases first, so exactly that unit
				// must expire and be stolen for the campaign to finish.
				leaseAndVanish(t, base)

				// The fleet: two healthy workers on different engines,
				// plus a straggler that never heartbeats and ships its
				// unit only after the lease is long expired.
				var once sync.Once
				workers := []*Worker{
					{Base: base, Name: "healthy-fork", Engine: inject.EngineFork,
						Workers: 2, PollInterval: 25 * time.Millisecond},
					{Base: base, Name: "healthy-rerun", Engine: inject.EngineRerun,
						Workers: 2, PollInterval: 25 * time.Millisecond},
					{Base: base, Name: "straggler", Engine: inject.EngineFork,
						Workers: 2, PollInterval: 25 * time.Millisecond,
						HeartbeatEvery: time.Hour,
						sleepBeforeShip: func(int) {
							once.Do(func() { time.Sleep(2 * ttl) })
						}},
				}
				workerErrs := make(chan error, len(workers))
				for _, w := range workers {
					w := w
					go func() { workerErrs <- w.Run(ctx) }()
				}

				if err := <-runDone; err != nil {
					t.Fatalf("Run: %v", err)
				}
				fleet.coord.Finish()
				for range workers {
					if err := <-workerErrs; err != nil {
						t.Errorf("worker: %v", err)
					}
				}

				st := fleet.coord.Status()
				if st.LeasesExpired < 1 {
					t.Errorf("LeasesExpired = %d, want >= 1 (the crashed worker's unit)", st.LeasesExpired)
				}

				if got := normalizeResult(mergedRes); !reflect.DeepEqual(got, refNorm) {
					t.Errorf("coordinated result diverges from single-process:\n%+v\nvs\n%+v", got, refNorm)
				}
				if table := renderTable(t, mergedRes); table != refTable {
					t.Errorf("coordinated table diverges:\n%s\nvs\n%s", table, refTable)
				}
			})
		}
	}
}

// TestHeldThiefLeasesAtTTL is the real-clock proof that stealing no
// longer costs a poll interval: a worker whose PollInterval is 10 s asks
// for a lease while the only unit left is held by a worker that leased
// it and vanished, and is granted that unit when the 200 ms TTL runs
// out — by the request it already had outstanding.
func TestHeldThiefLeasesAtTTL(t *testing.T) {
	const ttl = 200 * time.Millisecond
	app := apps.All()[0]
	campaign := &inject.Campaign{App: app, Mode: inject.LetGoE, N: 6, Seed: 4321}
	plan, err := campaign.PlanContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cdr := NewCoordinator(resilience.New(), Options{LeaseTTL: ttl, UnitSize: 3})
	handler := cdr.Handler()
	// The server notes when each lease request was answered: the thief's
	// first unit, the crasher's, then the thief's steal.
	var mu sync.Mutex
	var leaseAnswered []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
		if r.URL.Path == "/fabric/lease" {
			mu.Lock()
			leaseAnswered = append(leaseAnswered, time.Now())
			mu.Unlock()
		}
	}))
	defer srv.Close()

	// Well under PollInterval: a thief that slept once cannot finish.
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	coordDone := make(chan error, 1)
	go func() { coordDone <- cdr.Coordinate(ctx, plan.Manifest()) }()

	// The thief executes unit 0; before it ships, the other unit is
	// leased by a worker that never speaks again. The thief's next lease
	// request therefore finds nothing pending.
	thief := &Worker{Base: srv.URL, Name: "thief", Workers: 2, PollInterval: 10 * time.Second,
		sleepBeforeShip: func(unitID int) {
			if unitID != 0 {
				return
			}
			var lr LeaseResponse
			err := callJSON(ctx, http.MethodPost, srv.URL+"/fabric/lease", LeaseRequest{Worker: "crashed", Generation: 1}, &lr)
			if err != nil || lr.Unit == nil || lr.Unit.ID != 1 {
				t.Errorf("crashing worker's lease: %+v, %v", lr, err)
			}
		}}
	thiefDone := make(chan error, 1)
	go func() { thiefDone <- thief.Run(ctx) }()

	if err := <-coordDone; err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	cdr.Finish()
	if err := <-thiefDone; err != nil {
		t.Fatalf("thief: %v", err)
	}
	st := cdr.Status()
	if st.LeasesGranted != 3 || st.LeasesExpired != 1 {
		t.Fatalf("granted %d expired %d, want 3 and 1", st.LeasesGranted, st.LeasesExpired)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(leaseAnswered) < 3 {
		t.Fatalf("%d lease requests answered, want at least 3", len(leaseAnswered))
	}
	// leaseAnswered[1] is just after the crasher's lease began, so the
	// steal lands a little under the TTL after it.
	waited := leaseAnswered[2].Sub(leaseAnswered[1])
	t.Logf("steal granted %v after the dead worker's lease (TTL %v)", waited, ttl)
	if waited < ttl/2 || waited > ttl+50*time.Millisecond {
		t.Errorf("thief was granted the dead worker's unit %v after it was leased, want the %v TTL (+50ms at most)", waited, ttl)
	}
}
