package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

// maxBody bounds request bodies; the largest legitimate payload is a
// CompleteRequest full of journal records, which is well under this.
const maxBody = 64 << 20

// holdCap is the longest the coordinator holds a campaign or lease
// request that has no answer yet before giving today's idle answer
// (Spec nil, Wait). It must stay below clientTimeout, or a held worker
// would time out client-side and retry into backoff instead of being
// answered.
const holdCap = 25 * time.Second

// Options configures a coordinator.
type Options struct {
	// LeaseTTL is how long a leased unit survives without a heartbeat
	// (0 selects DefaultLeaseTTL).
	LeaseTTL time.Duration
	// UnitSize is the number of plan indices per work unit (0 derives
	// one from the campaign size).
	UnitSize int
	// Hub optionally mirrors lease/steal/ship activity into
	// letgo_fabric_* metrics.
	Hub *obs.Hub
}

// coordinator serves the fabric work queue for one letgo-inject
// invocation: a sequence of campaigns, each partitioned into leased work
// units. It is safe for concurrent use by its HTTP handlers and the
// Coordinate caller. All durable state lives in the resilience journal,
// so a killed coordinator resumes by reopening the journal: units whose
// indices are all journaled are born complete, everything else is
// re-dispatched.
type coordinator struct {
	journal  *resilience.Journal
	hub      *obs.Hub
	ttl      time.Duration
	unitSize int
	now      func() time.Time
	hold     time.Duration // holdCap, except in tests

	mu      sync.Mutex
	gen     int
	cur     *campaignState
	done    bool
	workers map[string]*workerState
	// wake is closed and replaced (wakeLocked) on every transition that
	// can change the answer to a held request or to awaitDrain: campaign
	// published, finished or aborted, a unit back on the queue, Finish, a
	// worker told Done. A waiter reads the state and this channel under
	// one acquisition of mu, so no transition falls between the two.
	wake chan struct{}

	leasesGranted    int
	leasesExpired    int
	heartbeats       int
	recordsShipped   int
	duplicateRecords int
}

type workerState struct {
	lastSeen       time.Time
	toldDone       bool
	unitsCompleted int
	held           int // requests this worker has on hold right now
}

type campaignState struct {
	gen      int
	key      resilience.Key
	digest   string
	unitSize int
	units    []*unit
	pending  []int // unit IDs available for lease, FIFO
	// completed counts done units; finished flips when every unit is
	// done or the campaign aborts, and doneCh is closed exactly then.
	completed int
	finished  bool
	err       error
	doneCh    chan struct{}
}

type unit struct {
	id      int
	indices []int
	done    bool
	leased  bool
	worker  string
	expires time.Time
	stolen  int
}

// finishLocked terminates the campaign (err nil for success) exactly
// once. Callers hold the coordinator mutex.
func (c *coordinator) finishLocked(st *campaignState, err error) {
	if st.finished {
		return
	}
	st.finished = true
	st.err = err
	close(st.doneCh)
	c.wakeLocked()
}

// wakeLocked releases every held request and awaitDrain to look at the
// state again. Callers hold the coordinator mutex.
func (c *coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// NewCoordinator builds a coordinator persisting through journal (which
// must be non-nil: the journal is both the shipped-record store and the
// coordinator's own resume state).
func NewCoordinator(journal *resilience.Journal, o Options) *coordinator {
	c := &coordinator{
		journal:  journal,
		hub:      o.Hub,
		ttl:      o.LeaseTTL,
		unitSize: o.UnitSize,
		now:      time.Now,
		hold:     holdCap,
		workers:  map[string]*workerState{},
		wake:     make(chan struct{}),
	}
	if c.ttl <= 0 {
		c.ttl = DefaultLeaseTTL
	}
	c.registerMetrics()
	return c
}

// autoUnitSize picks a unit size giving every worker several units to
// steal from without drowning the protocol in round trips.
func autoUnitSize(n int) int {
	size := n / 32
	if size < 1 {
		size = 1
	}
	if size > 256 {
		size = 256
	}
	return size
}

// Coordinate publishes the campaign described by the manifest and blocks
// until every work unit is complete (nil), the campaign aborts on a
// record conflict (the conflict error), or ctx is cancelled (ctx's
// error; whatever shipped is already in the journal, so the caller can
// render a partial table and resume later). Campaigns are coordinated
// one at a time, in sequence.
func (c *coordinator) Coordinate(ctx context.Context, m inject.PlanManifest) error {
	digest, err := m.Digest()
	if err != nil {
		return err
	}
	n := len(m.Plans)
	if n == 0 {
		return fmt.Errorf("fabric: cannot coordinate an empty plan")
	}
	size := c.unitSize
	if size <= 0 {
		size = autoUnitSize(n)
	}
	st := &campaignState{key: m.Key, digest: digest, unitSize: size, doneCh: make(chan struct{})}
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		u := &unit{id: len(st.units), indices: make([]int, 0, end-start)}
		for i := start; i < end; i++ {
			u.indices = append(u.indices, i)
		}
		st.units = append(st.units, u)
	}
	// Resume: a unit whose indices are all journaled (a previous
	// coordinator life, or an overlapping static shard run) is born
	// complete; everything else goes on the queue.
	covered := c.journal.Completed(m.Key)
	for _, u := range st.units {
		all := true
		for _, i := range u.indices {
			if _, ok := covered[i]; !ok {
				all = false
				break
			}
		}
		if all {
			u.done = true
			st.completed++
		} else {
			st.pending = append(st.pending, u.id)
		}
	}

	c.mu.Lock()
	c.gen++
	st.gen = c.gen
	c.cur = st
	c.wakeLocked()
	if st.completed == len(st.units) {
		c.finishLocked(st, nil)
	}
	c.mu.Unlock()
	c.hub.Gauge("letgo_fabric_generation").Set(float64(st.gen))
	c.hub.Gauge("letgo_fabric_units").Set(float64(len(st.units)))

	select {
	case <-ctx.Done():
		c.mu.Lock()
		c.finishLocked(st, ctx.Err())
		c.cur = nil
		c.mu.Unlock()
		c.journal.Flush()
		return ctx.Err()
	case <-st.doneCh:
		c.mu.Lock()
		err := st.err
		c.cur = nil
		c.mu.Unlock()
		if ferr := c.journal.Flush(); err == nil {
			err = ferr
		}
		return err
	}
}

// Finish marks the whole invocation done: campaign polls and leases,
// held ones included, now answer Done so workers exit cleanly.
func (c *coordinator) Finish() {
	c.mu.Lock()
	c.done = true
	c.wakeLocked()
	c.mu.Unlock()
}

// awaitDrain waits (up to timeout) until every worker seen recently, or
// holding a request right now, has been given the Done answer at least
// once, so the coordinator process can exit without stranding workers in
// their retry loops. Workers that died silently simply age out of the
// wait.
func (c *coordinator) awaitDrain(timeout time.Duration) {
	expired := time.NewTimer(timeout)
	defer expired.Stop()
	for {
		c.mu.Lock()
		now := c.now()
		waiting := 0
		for _, w := range c.workers {
			if !w.toldDone && (w.held > 0 || now.Sub(w.lastSeen) < timeout) {
				waiting++
			}
		}
		wake := c.wake
		c.mu.Unlock()
		if waiting == 0 {
			return
		}
		select {
		case <-wake:
		case <-expired.C:
			return
		}
	}
}

// await answers a request that may have to be held. It calls answer
// under the coordinator mutex; while answer reports that it has nothing
// for this worker yet (idle), await parks the request and calls answer
// again when a transition broadcasts on c.wake, when the earliest
// outstanding lease reaches its expiry (so a waiting worker steals a
// dead worker's unit at the TTL), or when the hold cap passes. The last
// answer computed is the one sent: after the cap that is the idle answer
// a coordinator that never held would give. A client that goes away
// ends the hold without another call — nothing is leased to it.
func (c *coordinator) await(ctx context.Context, worker string, answer func(ws *workerState) (idle bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	deadline := c.now().Add(c.hold)
	for ctx.Err() == nil {
		ws := c.touchLocked(worker)
		idle := answer(ws)
		now := c.now()
		if !idle || !now.Before(deadline) {
			return
		}
		wait := deadline.Sub(now)
		if exp, ok := c.nextExpiryLocked(); ok && exp.Sub(now) < wait {
			wait = exp.Sub(now)
		}
		wake := c.wake
		if ws != nil {
			ws.held++
		}
		c.mu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-wake:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
		c.mu.Lock()
		if ws != nil {
			ws.held--
		}
	}
}

// nextExpiryLocked returns the earliest expiry among the current
// campaign's outstanding leases.
func (c *coordinator) nextExpiryLocked() (time.Time, bool) {
	var next time.Time
	st := c.cur
	if st == nil || st.finished {
		return next, false
	}
	for _, u := range st.units {
		if u.leased && !u.done && (next.IsZero() || u.expires.Before(next)) {
			next = u.expires
		}
	}
	return next, !next.IsZero()
}

// Handler returns the coordinator's HTTP surface: the four /fabric/
// protocol endpoints, the /fabric/status snapshot, and a /healthz probe.
func (c *coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fabric/campaign", c.handleCampaign)
	mux.HandleFunc("/fabric/lease", c.handleLease)
	mux.HandleFunc("/fabric/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/fabric/complete", c.handleComplete)
	mux.HandleFunc("/fabric/status", c.handleStatus)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// touchLocked records that a worker spoke to us.
func (c *coordinator) touchLocked(name string) *workerState {
	if name == "" {
		return nil
	}
	w := c.workers[name]
	if w == nil {
		w = &workerState{}
		c.workers[name] = w
	}
	w.lastSeen = c.now()
	return w
}

// expireLocked returns every lease that has reached its expiry to the
// queue — the work-stealing half of the protocol. It runs lazily on each
// request that could observe the queue, a held lease request included
// (await wakes it at the earliest expiry), so liveness needs no
// background timer: a worker asking for work is exactly the moment a
// stolen unit has somewhere to go.
func (c *coordinator) expireLocked() {
	st := c.cur
	if st == nil || st.finished {
		return
	}
	now := c.now()
	requeued := false
	for _, u := range st.units {
		if u.leased && !u.done && !now.Before(u.expires) {
			u.leased = false
			u.worker = ""
			u.stolen++
			st.pending = append(st.pending, u.id)
			c.leasesExpired++
			c.hub.Counter("letgo_fabric_lease_expirations_total").Inc()
			requeued = true
		}
	}
	if requeued {
		c.wakeLocked()
	}
}

func (c *coordinator) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	var resp CampaignResponse
	c.await(r.Context(), r.URL.Query().Get("worker"), func(ws *workerState) bool {
		resp = CampaignResponse{Done: c.done}
		if c.done {
			c.toldDoneLocked(ws)
		} else if st := c.cur; st != nil && !st.finished {
			resp.Spec = &CampaignSpec{
				Generation: st.gen, Key: st.key, ManifestDigest: st.digest,
				Units: len(st.units), UnitSize: st.unitSize, LeaseTTL: c.ttl,
			}
		}
		return !resp.Done && resp.Spec == nil
	})
	writeJSON(w, resp)
}

// toldDoneLocked records that a worker has been given the Done answer,
// which is what awaitDrain waits for.
func (c *coordinator) toldDoneLocked(ws *workerState) {
	if ws != nil && !ws.toldDone {
		ws.toldDone = true
		c.wakeLocked()
	}
}

func (c *coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Worker == "" {
		http.Error(w, "lease needs a worker name", http.StatusBadRequest)
		return
	}
	var resp LeaseResponse
	c.await(r.Context(), req.Worker, func(ws *workerState) bool {
		resp = LeaseResponse{}
		st := c.cur
		switch {
		case c.done:
			resp.Done = true
			// A worker can spend its whole life in the lease loop, so
			// the drain accounting must count a Done answer here too.
			c.toldDoneLocked(ws)
		case st == nil || st.finished || req.Generation != st.gen:
			resp.Stale = true
		default:
			c.expireLocked()
			if len(st.pending) == 0 {
				resp.Wait = true
				break
			}
			id := st.pending[0]
			st.pending = st.pending[1:]
			u := st.units[id]
			u.leased = true
			u.worker = req.Worker
			u.expires = c.now().Add(c.ttl)
			c.leasesGranted++
			c.hub.Counter("letgo_fabric_leases_granted_total").Inc()
			resp.Unit = &LeaseUnit{ID: u.id, Indices: append([]int(nil), u.indices...), Stolen: u.stolen}
		}
		return resp.Wait
	})
	writeJSON(w, resp)
}

func (c *coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	c.touchLocked(req.Worker)
	ok := false
	if st := c.cur; !c.done && st != nil && !st.finished && req.Generation == st.gen &&
		req.Unit >= 0 && req.Unit < len(st.units) {
		c.expireLocked()
		u := st.units[req.Unit]
		if u.leased && !u.done && u.worker == req.Worker {
			u.expires = c.now().Add(c.ttl)
			c.heartbeats++
			c.hub.Counter("letgo_fabric_heartbeats_total").Inc()
			ok = true
		}
	}
	c.mu.Unlock()
	writeJSON(w, HeartbeatResponse{OK: ok})
}

func (c *coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Worker == "" {
		http.Error(w, "complete needs a worker name", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	ws := c.touchLocked(req.Worker)
	st := c.cur
	if c.done || st == nil || st.finished || req.Generation != st.gen {
		c.mu.Unlock()
		writeJSON(w, CompleteResponse{OK: false})
		return
	}
	if req.Unit < 0 || req.Unit >= len(st.units) {
		c.mu.Unlock()
		http.Error(w, "no such unit", http.StatusBadRequest)
		return
	}
	u := st.units[req.Unit]
	// Validate before merging anything: a malformed shipment must not
	// half-apply.
	for _, rec := range req.Records {
		if rec.Key != st.key {
			c.mu.Unlock()
			http.Error(w, fmt.Sprintf("record for foreign campaign %s", rec.Key), http.StatusBadRequest)
			return
		}
		if !unitHasIndex(u, rec.Index) {
			c.mu.Unlock()
			http.Error(w, fmt.Sprintf("record index %d outside unit %d", rec.Index, u.id), http.StatusBadRequest)
			return
		}
	}
	resp := CompleteResponse{OK: true}
	for _, rec := range req.Records {
		if rec.Writer == "" {
			rec.Writer = req.Worker
		}
		if prev, ok := c.journal.Lookup(st.key, rec.Index); ok {
			if resilience.SamePayload(prev, rec) {
				// The benign half of the steal story: a re-dispatched
				// unit completed twice ships byte-identical payloads.
				resp.Duplicates++
				continue
			}
			err := fmt.Errorf("fabric: conflicting records for %s index %d from writers %q and %q",
				st.key, rec.Index, prev.Writer, rec.Writer)
			c.finishLocked(st, err)
			c.hub.Counter("letgo_fabric_conflicts_total").Inc()
			c.mu.Unlock()
			writeJSON(w, CompleteResponse{Conflict: err.Error()})
			return
		}
		c.journal.Append(rec)
		c.recordsShipped++
		c.hub.Counter("letgo_fabric_records_shipped_total").Inc()
	}
	c.duplicateRecords += resp.Duplicates
	if resp.Duplicates > 0 {
		c.hub.Counter("letgo_fabric_duplicate_records_total").Add(uint64(resp.Duplicates))
	}
	// A unit is done when the journal covers every index it owns — not
	// when someone claims it is: a worker that shipped a partial unit
	// (drained mid-execution) releases its lease instead, and the rest
	// of the unit is re-dispatched.
	covered := true
	for _, i := range u.indices {
		if _, ok := c.journal.Lookup(st.key, i); !ok {
			covered = false
			break
		}
	}
	switch {
	case covered && !u.done:
		u.done = true
		u.leased = false
		st.completed++
		if ws != nil {
			ws.unitsCompleted++
		}
		c.hub.Counter("letgo_fabric_units_completed_total").Inc()
		if st.completed == len(st.units) {
			c.finishLocked(st, nil)
		}
	case !covered && u.leased && u.worker == req.Worker:
		u.leased = false
		u.worker = ""
		st.pending = append(st.pending, u.id)
		c.wakeLocked()
	}
	c.mu.Unlock()
	// Persist outside the coordinator lock: the journal has its own.
	if err := c.journal.Flush(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, resp)
}

func (c *coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	st := c.Status()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st) //nolint:errcheck // best-effort HTTP write
}

// Status snapshots the coordinator's live state (the /fabric/status
// payload).
func (c *coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	s := Status{
		Done:             c.done,
		LeasesGranted:    c.leasesGranted,
		LeasesExpired:    c.leasesExpired,
		Heartbeats:       c.heartbeats,
		RecordsShipped:   c.recordsShipped,
		DuplicateRecords: c.duplicateRecords,
	}
	if st := c.cur; st != nil {
		s.Generation = st.gen
		s.Campaign = st.key.String()
		s.Units = len(st.units)
		s.UnitsCompleted = st.completed
		if st.err != nil {
			s.Conflict = st.err.Error()
		}
		now := c.now()
		for _, u := range st.units {
			if u.leased && !u.done {
				s.UnitsLeased++
				s.Leases = append(s.Leases, LeaseStatus{
					Unit: u.id, Worker: u.worker,
					ExpiresInSeconds: u.expires.Sub(now).Seconds(),
					Stolen:           u.stolen,
				})
			}
		}
		s.UnitsPending = len(st.units) - st.completed - s.UnitsLeased
	} else {
		s.Generation = c.gen
	}
	now := c.now()
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws := c.workers[name]
		s.Workers = append(s.Workers, WorkerStatus{
			Name: name, LastSeenSeconds: now.Sub(ws.lastSeen).Seconds(),
			UnitsCompleted: ws.unitsCompleted,
		})
	}
	return s
}

func (c *coordinator) registerMetrics() {
	if c.hub == nil || c.hub.Reg == nil {
		return
	}
	reg := c.hub.Reg
	reg.Help("letgo_fabric_leases_granted_total", "Work-unit leases granted to fabric workers.")
	reg.Counter("letgo_fabric_leases_granted_total")
	reg.Help("letgo_fabric_lease_expirations_total", "Leases that expired without completion and were re-dispatched (work stealing).")
	reg.Counter("letgo_fabric_lease_expirations_total")
	reg.Help("letgo_fabric_heartbeats_total", "Lease renewals accepted from fabric workers.")
	reg.Counter("letgo_fabric_heartbeats_total")
	reg.Help("letgo_fabric_units_completed_total", "Work units whose indices are fully journaled.")
	reg.Counter("letgo_fabric_units_completed_total")
	reg.Help("letgo_fabric_records_shipped_total", "Journal records shipped by workers and accepted.")
	reg.Counter("letgo_fabric_records_shipped_total")
	reg.Help("letgo_fabric_duplicate_records_total", "Shipped records already journaled with identical payloads (benign steal overlap).")
	reg.Counter("letgo_fabric_duplicate_records_total")
	reg.Help("letgo_fabric_conflicts_total", "Shipped records conflicting with the journal (campaign aborted).")
	reg.Counter("letgo_fabric_conflicts_total")
	reg.Help("letgo_fabric_generation", "Campaign generation currently coordinated.")
	reg.Gauge("letgo_fabric_generation")
	reg.Help("letgo_fabric_units", "Work units in the current campaign's partition.")
	reg.Gauge("letgo_fabric_units")
}

func unitHasIndex(u *unit, i int) bool {
	// Units are small contiguous-ish sorted slices; a range check plus
	// binary search keeps validation cheap for any shape.
	n := len(u.indices)
	if n == 0 || i < u.indices[0] || i > u.indices[n-1] {
		return false
	}
	pos := sort.SearchInts(u.indices, i)
	return pos < n && u.indices[pos] == i
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort HTTP write
}

// decodeJSON parses a POST body into v, rejecting other methods,
// oversized bodies and malformed JSON with the right status codes. It
// reports whether the handler should proceed.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	body := http.MaxBytesReader(w, r.Body, maxBody)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}
