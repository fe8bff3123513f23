package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

// Worker is the fabric's client side: it polls a coordinator for
// campaigns, plans each one locally (verifying the manifest digest), then
// leases work units, executes them on the inject Execute stage, and ships
// the resulting journal records back. One Worker runs one Run loop; the
// parallelism within a unit comes from the campaign's injection workers.
type Worker struct {
	// Base is the coordinator's base URL ("http://host:port").
	Base string
	// Name is this worker's identity: the lease owner name and the
	// Writer stamped on every shipped record.
	Name string

	// Engine, Workers and Watchdog configure the local Execute stage
	// exactly as they would a standalone campaign. Engines may differ
	// across the fleet: classified records are engine-independent.
	Engine   inject.Engine
	Workers  int
	Watchdog time.Duration
	// Hub optionally mirrors retry/unit activity into letgo_fabric_*
	// metrics.
	Hub *obs.Hub

	// PollInterval is the floor spacing between idle campaign/lease
	// requests (0 selects DefaultPollInterval). The coordinator holds a
	// request it cannot answer yet, so an idle answer (no campaign
	// published, no unit free) normally arrives late and the next
	// request follows at once; only an idle answer that came back sooner
	// than PollInterval — a coordinator that does not hold — is followed
	// by a sleep for the remainder. It is not the latency of anything.
	PollInterval time.Duration
	// HeartbeatEvery overrides the lease renewal cadence (0 derives
	// LeaseTTL/3 from the campaign spec). Tests set it absurdly large to
	// simulate a straggler that stops renewing.
	HeartbeatEvery time.Duration

	// sleepBeforeShip, when non-nil, runs after a unit's execution and
	// before its records ship — the hook tests use to fake a straggler
	// that computes results but ships them after its lease expired.
	sleepBeforeShip func(unitID int)

	// httpc is the client every call of one Run uses.
	httpc *http.Client
}

// clientTimeout is the whole-request timeout of the client each Run
// builds. It must stay above the coordinator's holdCap: a held request
// is answered at the cap at the latest, and has to still be listening
// then.
const clientTimeout = 30 * time.Second

// maxAttempts bounds consecutive failures per coordinator call before the
// worker gives up.
const maxAttempts = 20

// errProtocol marks a 4xx coordinator answer: the request itself is
// wrong, so retrying it verbatim cannot help.
type errProtocol struct{ err error }

func (e *errProtocol) Error() string { return e.err.Error() }
func (e *errProtocol) Unwrap() error { return e.err }

// Run executes the worker loop until the coordinator says the invocation
// is done (nil), ctx is cancelled (ctx's error), or the coordinator
// stays unreachable past the retry budget.
func (w *Worker) Run(ctx context.Context) error {
	if w.Base == "" || w.Name == "" {
		return fmt.Errorf("fabric: worker needs a coordinator URL and a name")
	}
	w.registerMetrics()
	w.httpc = &http.Client{Timeout: clientTimeout}
	for {
		var camp CampaignResponse
		asked := time.Now()
		if err := w.call(ctx, http.MethodGet, "/fabric/campaign?worker="+w.Name, nil, &camp, maxAttempts); err != nil {
			return err
		}
		switch {
		case camp.Done:
			return nil
		case camp.Spec == nil:
			if !w.idle(ctx, asked) {
				return ctx.Err()
			}
		default:
			done, err := w.serveCampaign(ctx, camp.Spec)
			if err != nil || done {
				return err
			}
		}
	}
}

// serveCampaign plans the published campaign and works its lease queue
// until the campaign is over (false), the invocation is done (true), or
// something fails.
func (w *Worker) serveCampaign(ctx context.Context, spec *CampaignSpec) (bool, error) {
	c, err := w.campaignFor(spec.Key)
	if err != nil {
		return false, err
	}
	plan, err := c.PlanContext(ctx)
	if err != nil {
		return false, err
	}
	digest, err := plan.Manifest().Digest()
	if err != nil {
		return false, err
	}
	if digest != spec.ManifestDigest {
		// The two processes disagree about what the campaign is
		// (different binary, model or sampling); executing anything
		// would ship conflicting records, so refuse up front.
		return false, fmt.Errorf("fabric: plan digest mismatch for %s: worker %s, coordinator %s",
			spec.Key, digest, spec.ManifestDigest)
	}
	for {
		var lr LeaseResponse
		asked := time.Now()
		err := w.call(ctx, http.MethodPost, "/fabric/lease",
			LeaseRequest{Worker: w.Name, Generation: spec.Generation}, &lr, maxAttempts)
		if err != nil {
			return false, err
		}
		switch {
		case lr.Done:
			return true, nil
		case lr.Stale:
			return false, nil // campaign over or superseded; re-poll
		case lr.Unit != nil:
			if err := w.executeUnit(ctx, c, plan, spec, lr.Unit); err != nil {
				return false, err
			}
			if ctx.Err() != nil {
				return false, ctx.Err()
			}
		default:
			// Everything pending is leased elsewhere, and stayed so for
			// as long as the coordinator held the request.
			if !w.idle(ctx, asked) {
				return false, ctx.Err()
			}
		}
	}
}

// executeUnit runs one leased unit through the Execute stage into a
// fresh in-memory journal and ships the records. A unit whose lease was
// lost mid-execution (heartbeat answered no, or the coordinator was
// unreachable for longer than the TTL) is abandoned without shipping —
// whoever stole it produces the identical records. A unit interrupted by
// the caller's ctx is likewise not shipped: the lease simply expires.
func (w *Worker) executeUnit(ctx context.Context, c *inject.Campaign, plan *inject.PlannedCampaign, spec *CampaignSpec, lease *LeaseUnit) error {
	unit, err := plan.Unit(lease.Indices)
	if err != nil {
		return &errProtocol{fmt.Errorf("fabric: leased unit %d: %w", lease.ID, err)}
	}
	j := resilience.New()
	j.Writer = w.Name
	c.Journal = j

	// The heartbeat goroutine renews the lease while the unit executes
	// and cancels the execution if the lease is lost.
	unitCtx, cancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeat(unitCtx, cancel, spec, lease.ID)
	}()
	res, err := c.ExecuteContext(unitCtx, plan, unit)
	cancel()
	<-hbDone
	if err != nil {
		return err
	}
	if res.Interrupted {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return nil // lease lost; the unit is someone else's now
	}
	if w.sleepBeforeShip != nil {
		w.sleepBeforeShip(lease.ID)
	}

	records := recordsInOrder(j)
	var resp CompleteResponse
	err = w.call(ctx, http.MethodPost, "/fabric/complete",
		CompleteRequest{Worker: w.Name, Generation: spec.Generation, Unit: lease.ID, Records: records},
		&resp, maxAttempts)
	if err != nil {
		return err
	}
	if resp.Conflict != "" {
		return fmt.Errorf("fabric: coordinator rejected unit %d: %s", lease.ID, resp.Conflict)
	}
	// !resp.OK without a conflict means the request was stale (the
	// campaign finished without this unit — it was stolen and completed
	// elsewhere). That is the benign race the lease protocol exists for.
	if resp.OK {
		w.Hub.Counter("letgo_fabric_worker_units_total").Inc()
	}
	return nil
}

// heartbeat renews the unit's lease every HeartbeatEvery (default TTL/3)
// until ctx ends, cancelling the unit's execution the moment the lease
// is no longer ours.
func (w *Worker) heartbeat(ctx context.Context, cancel context.CancelFunc, spec *CampaignSpec, unitID int) {
	every := w.HeartbeatEvery
	if every <= 0 {
		every = spec.LeaseTTL / 3
		if every <= 0 {
			every = DefaultLeaseTTL / 3
		}
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var resp HeartbeatResponse
			// A short retry budget: if the coordinator stays unreachable
			// across several beats the lease has expired anyway, so
			// abandon the unit rather than finish work someone else owns.
			err := w.call(ctx, http.MethodPost, "/fabric/heartbeat",
				HeartbeatRequest{Worker: w.Name, Generation: spec.Generation, Unit: unitID}, &resp, 3)
			if ctx.Err() != nil {
				return
			}
			if err != nil || !resp.OK {
				cancel()
				return
			}
		}
	}
}

// campaignFor reconstructs the local Campaign for a coordinator-published
// key. Everything execution needs beyond the key (engine, worker count,
// watchdog, sinks) is the worker's own configuration, because none of it
// affects classified records.
func (w *Worker) campaignFor(key resilience.Key) (*inject.Campaign, error) {
	app, ok := apps.ByName(key.App)
	if !ok {
		return nil, fmt.Errorf("fabric: coordinator campaign names unknown app %q", key.App)
	}
	mode, err := inject.ParseMode(key.Mode)
	if err != nil {
		return nil, err
	}
	model, err := inject.ParseFaultModel(key.Model)
	if err != nil {
		return nil, err
	}
	return &inject.Campaign{
		App: app, Mode: mode, N: key.N, Seed: key.Seed, Model: model,
		Engine: w.Engine, Workers: w.Workers, Watchdog: w.Watchdog, Obs: w.Hub,
	}, nil
}

// recordsInOrder snapshots a unit journal's records sorted by index.
func recordsInOrder(j *resilience.Journal) []resilience.Record {
	records := j.Records()
	sort.Slice(records, func(a, b int) bool { return records[a].Index < records[b].Index })
	return records
}

// idle spaces idle requests at least PollInterval apart: after an idle
// answer to a request made at asked, it sleeps out whatever is left of
// the interval, which is nothing when the coordinator held the request
// that long. It reports false when ctx ended first.
func (w *Worker) idle(ctx context.Context, asked time.Time) bool {
	poll := w.PollInterval
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	return sleep(ctx, poll-time.Since(asked))
}

// call performs one coordinator request with retries: exponential
// backoff with jitter on network errors and 5xx answers, no retry on 4xx
// (the request itself is wrong) or once ctx ends.
func (w *Worker) call(ctx context.Context, method, path string, in, out any, attempts int) error {
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			w.Hub.Counter("letgo_fabric_retries_total").Inc()
			if !sleep(ctx, backoff(a-1)) {
				return ctx.Err()
			}
		}
		lastErr = w.once(ctx, method, path, in, out)
		if lastErr == nil {
			return nil
		}
		var pe *errProtocol
		if errors.As(lastErr, &pe) {
			return lastErr
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return fmt.Errorf("fabric: %s %s failed after %d attempts: %w", method, path, attempts, lastErr)
}

// once performs a single coordinator request.
func (w *Worker) once(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return &errProtocol{err}
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.Base+path, body)
	if err != nil {
		return &errProtocol{err}
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("fabric: coordinator answered %s to %s %s: %s",
			resp.Status, method, path, strings.TrimSpace(string(data)))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return &errProtocol{err}
		}
		return err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("fabric: bad coordinator response to %s %s: %w", method, path, err)
		}
	}
	return nil
}

func (w *Worker) registerMetrics() {
	if w.Hub == nil || w.Hub.Reg == nil {
		return
	}
	reg := w.Hub.Reg
	reg.Help("letgo_fabric_retries_total", "Coordinator calls retried after a transient failure.")
	reg.Counter("letgo_fabric_retries_total")
	reg.Help("letgo_fabric_worker_units_total", "Work units this worker executed and shipped successfully.")
	reg.Counter("letgo_fabric_worker_units_total")
}
