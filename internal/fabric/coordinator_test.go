package fabric

// Unit tests for the coordinator's lease protocol: grant, renew, expire,
// steal, duplicate-tolerant completion, conflict abort, partial-shipment
// release, journal resume, and the HTTP layer's rejection of malformed
// requests. Time is injected so expiry is deterministic.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

// fakeClock is a manually advanced time source safe for concurrent use.
// Advance also wakes the coordinator's held requests, standing in for
// the real timers that would have fired in the skipped interval.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	wake func()
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
	if f.wake != nil {
		f.wake()
	}
}

// testKey is the campaign key every coordinator test uses.
var testKey = resilience.Key{App: "X", Mode: "letgo-e", N: 6, Seed: 1, Model: "bitflip"}

// testManifest builds a 6-plan manifest for testKey.
func testManifest() inject.PlanManifest {
	m := inject.PlanManifest{Key: testKey, Budget: 1000, GoldenRetired: 100}
	for i := 0; i < testKey.N; i++ {
		m.Plans = append(m.Plans, inject.PlanRecord{Addr: uint64(i), Instance: 1, Mask: 1})
	}
	return m
}

// record fabricates a journal record for one index.
func record(index int, class, writer string) resilience.Record {
	return resilience.Record{Key: testKey, Index: index, Class: class, Writer: writer}
}

// harness spins up a coordinator over an in-memory journal with a fake
// clock and a 1s TTL, publishes the test manifest (unit size 2 → units
// {0,1}, {2,3}, {4,5}), and serves the protocol over httptest. Its hold
// cap is zero — every request is answered at once, as by a coordinator
// that does not hold — so the protocol tests read each state directly;
// the held-request tests use newHoldingHarness.
type harness struct {
	t        *testing.T
	c        *coordinator
	j        *resilience.Journal
	clock    *fakeClock
	srv      *httptest.Server
	coordErr chan error
	cancel   context.CancelFunc
}

func newHarness(t *testing.T, j *resilience.Journal) *harness {
	t.Helper()
	h := newIdleHarness(t, j, 0)
	h.coordinate()
	return h
}

// newIdleHarness is the harness before anything is published, holding
// requests for up to hold on the fake clock.
func newIdleHarness(t *testing.T, j *resilience.Journal, hold time.Duration) *harness {
	t.Helper()
	if j == nil {
		j = resilience.New()
	}
	h := &harness{t: t, j: j, clock: newFakeClock(), coordErr: make(chan error, 1)}
	h.c = NewCoordinator(j, Options{LeaseTTL: time.Second, UnitSize: 2})
	h.c.now = h.clock.Now
	h.c.hold = hold
	h.clock.wake = func() {
		h.c.mu.Lock()
		h.c.wakeLocked()
		h.c.mu.Unlock()
	}
	h.srv = httptest.NewServer(h.c.Handler())
	t.Cleanup(h.srv.Close)
	return h
}

// coordinate publishes the test manifest and waits until it is up.
func (h *harness) coordinate() {
	h.t.Helper()
	t := h.t
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	t.Cleanup(cancel)
	go func() { h.coordErr <- h.c.Coordinate(ctx, testManifest()) }()
	// Coordinate publishes asynchronously; wait until the campaign is up
	// (or already finished, for fully resumed journals).
	for i := 0; ; i++ {
		var camp CampaignResponse
		h.get("/fabric/campaign?worker=probe", &camp)
		if camp.Spec != nil {
			return
		}
		select {
		case err := <-h.coordErr:
			h.coordErr <- err
			return
		default:
		}
		if i > 100 {
			t.Fatal("campaign never published")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (h *harness) get(path string, out any) {
	h.t.Helper()
	resp, err := http.Get(h.srv.URL + path)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		h.t.Fatal(err)
	}
}

// post sends a JSON body and decodes the answer, returning the HTTP
// status code (out is only decoded on 200).
func (h *harness) post(path string, in, out any) int {
	h.t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.Post(h.srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			h.t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func (h *harness) lease(worker string) LeaseResponse {
	h.t.Helper()
	var lr LeaseResponse
	if code := h.post("/fabric/lease", LeaseRequest{Worker: worker, Generation: 1}, &lr); code != 200 {
		h.t.Fatalf("lease: status %d", code)
	}
	return lr
}

func (h *harness) complete(worker string, unit int, recs []resilience.Record) CompleteResponse {
	h.t.Helper()
	var cr CompleteResponse
	code := h.post("/fabric/complete",
		CompleteRequest{Worker: worker, Generation: 1, Unit: unit, Records: recs}, &cr)
	if code != 200 {
		h.t.Fatalf("complete: status %d", code)
	}
	return cr
}

// completeUnit ships every index of a leased unit as Benign.
func (h *harness) completeUnit(worker string, u *LeaseUnit) CompleteResponse {
	recs := make([]resilience.Record, 0, len(u.Indices))
	for _, i := range u.Indices {
		recs = append(recs, record(i, "Benign", worker))
	}
	return h.complete(worker, u.ID, recs)
}

func TestCoordinatorLeaseLifecycle(t *testing.T) {
	h := newHarness(t, nil)
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		lr := h.lease("w1")
		if lr.Unit == nil {
			t.Fatalf("lease %d: no unit granted: %+v", i, lr)
		}
		if seen[lr.Unit.ID] {
			t.Fatalf("unit %d leased twice without expiry", lr.Unit.ID)
		}
		seen[lr.Unit.ID] = true
		var hb HeartbeatResponse
		h.post("/fabric/heartbeat", HeartbeatRequest{Worker: "w1", Generation: 1, Unit: lr.Unit.ID}, &hb)
		if !hb.OK {
			t.Fatalf("heartbeat on live lease refused")
		}
		if cr := h.completeUnit("w1", lr.Unit); !cr.OK || cr.Duplicates != 0 {
			t.Fatalf("complete: %+v", cr)
		}
	}
	if err := <-h.coordErr; err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	if got := h.j.Len(); got != testKey.N {
		t.Errorf("journal holds %d records, want %d", got, testKey.N)
	}
	// After the campaign, the same lease generation is stale.
	if lr := h.lease("w1"); !lr.Stale && !lr.Done {
		t.Errorf("post-campaign lease = %+v, want stale or done", lr)
	}
}

func TestCoordinatorExpiryAndSteal(t *testing.T) {
	h := newHarness(t, nil)
	// Drain the pending queue: three workers hold the three units, so
	// a fourth can only be served by stealing an expired lease.
	l1 := h.lease("w1")
	l2 := h.lease("w2")
	l3 := h.lease("w3")
	if l1.Unit == nil || l2.Unit == nil || l3.Unit == nil {
		t.Fatalf("leases: %+v %+v %+v", l1, l2, l3)
	}
	if lr := h.lease("w4"); !lr.Wait {
		t.Fatalf("fully leased queue answered %+v, want wait", lr)
	}
	// A heartbeat within the TTL keeps w1's unit alive.
	var hb HeartbeatResponse
	h.post("/fabric/heartbeat", HeartbeatRequest{Worker: "w1", Generation: 1, Unit: l1.Unit.ID}, &hb)
	if !hb.OK {
		t.Fatal("heartbeat on a live lease refused")
	}
	h.clock.Advance(1500 * time.Millisecond)
	// Every lease is now overdue; w4's retry steals one.
	lr := h.lease("w4")
	if lr.Unit == nil {
		t.Fatalf("w4 got nothing after expiry: %+v", lr)
	}
	if lr.Unit.Stolen != 1 {
		t.Errorf("stolen unit reports Stolen=%d, want 1", lr.Unit.Stolen)
	}
	// The original owner's heartbeat must now be refused so it abandons
	// the unit instead of shipping work it no longer owns.
	h.post("/fabric/heartbeat", HeartbeatRequest{Worker: "w1", Generation: 1, Unit: l1.Unit.ID}, &hb)
	if hb.OK {
		t.Error("heartbeat on an expired, re-dispatched lease succeeded")
	}
	st := h.c.Status()
	if st.LeasesExpired < 3 {
		t.Errorf("LeasesExpired = %d, want >= 3", st.LeasesExpired)
	}
	h.cancel()
}

func TestCoordinatorDuplicateCompletionIsBenign(t *testing.T) {
	h := newHarness(t, nil)
	l1 := h.lease("w1")
	if cr := h.completeUnit("w1", l1.Unit); !cr.OK {
		t.Fatalf("first complete: %+v", cr)
	}
	// A straggler shipping the identical payloads for the same unit is
	// deterministic overlap: accepted, counted as duplicates.
	cr := h.completeUnit("w2", l1.Unit)
	if !cr.OK || cr.Conflict != "" {
		t.Fatalf("duplicate complete rejected: %+v", cr)
	}
	if cr.Duplicates != len(l1.Unit.Indices) {
		t.Errorf("Duplicates = %d, want %d", cr.Duplicates, len(l1.Unit.Indices))
	}
	if st := h.c.Status(); st.DuplicateRecords != len(l1.Unit.Indices) {
		t.Errorf("status DuplicateRecords = %d, want %d", st.DuplicateRecords, len(l1.Unit.Indices))
	}
	h.cancel()
}

func TestCoordinatorConflictAbortsCampaign(t *testing.T) {
	h := newHarness(t, nil)
	l1 := h.lease("w1")
	h.completeUnit("w1", l1.Unit)
	// A different payload for an already-journaled index means the fleet
	// disagrees about the campaign: abort, never last-record-wins.
	cr := h.complete("w2", l1.Unit.ID, []resilience.Record{record(l1.Unit.Indices[0], "SDC", "w2")})
	if cr.Conflict == "" || !strings.Contains(cr.Conflict, "conflicting records") {
		t.Fatalf("conflicting complete answered %+v, want a named conflict", cr)
	}
	// The abort surfaces as Coordinate's return value (the campaign
	// state, conflict included, is torn down with it).
	err := <-h.coordErr
	if err == nil || !strings.Contains(err.Error(), "conflicting records") {
		t.Fatalf("Coordinate returned %v, want the conflict", err)
	}
}

func TestCoordinatorPartialShipmentReleasesLease(t *testing.T) {
	h := newHarness(t, nil)
	l1 := h.lease("w1")
	// Ship only the first index of the two-index unit: the unit must not
	// be marked done, and the lease goes back on the queue.
	cr := h.complete("w1", l1.Unit.ID, []resilience.Record{record(l1.Unit.Indices[0], "Benign", "w1")})
	if !cr.OK {
		t.Fatalf("partial complete: %+v", cr)
	}
	if st := h.c.Status(); st.UnitsCompleted != 0 {
		t.Fatalf("partial shipment completed a unit: %+v", st)
	}
	// The released unit is leased again (to anyone); re-executing it
	// ships one duplicate plus the missing record, finishing the unit.
	var got *LeaseUnit
	for i := 0; i < 3; i++ {
		lr := h.lease("w2")
		if lr.Unit == nil {
			t.Fatalf("lease %d: %+v", i, lr)
		}
		if lr.Unit.ID == l1.Unit.ID {
			got = lr.Unit
			break
		}
	}
	if got == nil {
		t.Fatal("released unit never re-leased")
	}
	cr = h.completeUnit("w2", got)
	if !cr.OK || cr.Duplicates != 1 {
		t.Fatalf("re-complete: %+v, want OK with 1 duplicate", cr)
	}
	if st := h.c.Status(); st.UnitsCompleted != 1 {
		t.Errorf("UnitsCompleted = %d, want 1", st.UnitsCompleted)
	}
	h.cancel()
}

func TestCoordinatorResumesFromJournal(t *testing.T) {
	// Records covering units {0,1} and {2,3} already journaled: only the
	// last unit should ever be leased, and after it completes the
	// campaign is done.
	j := resilience.New()
	for i := 0; i < 4; i++ {
		j.Append(record(i, "Benign", "earlier-life"))
	}
	h := newHarness(t, j)
	lr := h.lease("w1")
	if lr.Unit == nil {
		t.Fatalf("no unit to lease on resume: %+v", lr)
	}
	if want := []int{4, 5}; fmt.Sprint(lr.Unit.Indices) != fmt.Sprint(want) {
		t.Fatalf("resumed lease owns %v, want %v", lr.Unit.Indices, want)
	}
	h.completeUnit("w1", lr.Unit)
	if err := <-h.coordErr; err != nil {
		t.Fatalf("Coordinate after resume: %v", err)
	}
}

func TestCoordinatorFullyJournaledCampaignFinishesInstantly(t *testing.T) {
	j := resilience.New()
	for i := 0; i < testKey.N; i++ {
		j.Append(record(i, "Benign", "earlier-life"))
	}
	c := NewCoordinator(j, Options{LeaseTTL: time.Second, UnitSize: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Coordinate(ctx, testManifest()); err != nil {
		t.Fatalf("Coordinate over a complete journal: %v", err)
	}
}

func TestCoordinatorStaleGeneration(t *testing.T) {
	h := newHarness(t, nil)
	var lr LeaseResponse
	h.post("/fabric/lease", LeaseRequest{Worker: "w1", Generation: 99}, &lr)
	if !lr.Stale {
		t.Errorf("wrong-generation lease = %+v, want stale", lr)
	}
	var cr CompleteResponse
	h.post("/fabric/complete", CompleteRequest{Worker: "w1", Generation: 99, Unit: 0,
		Records: []resilience.Record{record(0, "Benign", "w1")}}, &cr)
	if cr.OK {
		t.Errorf("wrong-generation complete accepted: %+v", cr)
	}
	if h.j.Len() != 0 {
		t.Errorf("stale complete reached the journal (%d records)", h.j.Len())
	}
	h.cancel()
}

func TestCoordinatorRejectsMalformedRequests(t *testing.T) {
	h := newHarness(t, nil)
	post := func(path, body string) int {
		resp, err := http.Post(h.srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/fabric/lease", "{nope"); code != http.StatusBadRequest {
		t.Errorf("bad JSON lease: status %d, want 400", code)
	}
	if code := post("/fabric/lease", `{"worker":"","generation":1}`); code != http.StatusBadRequest {
		t.Errorf("anonymous lease: status %d, want 400", code)
	}
	resp, err := http.Get(h.srv.URL + "/fabric/lease")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET lease: status %d, want 405", resp.StatusCode)
	}

	l1 := h.lease("w1")
	foreign := record(l1.Unit.Indices[0], "Benign", "w1")
	foreign.App = "NotThisCampaign"
	var cr CompleteResponse
	if code := h.post("/fabric/complete",
		CompleteRequest{Worker: "w1", Generation: 1, Unit: l1.Unit.ID,
			Records: []resilience.Record{foreign}}, &cr); code != http.StatusBadRequest {
		t.Errorf("foreign-campaign record: status %d, want 400", code)
	}
	outside := record(5, "Benign", "w1") // unit 0 owns {0,1}
	if code := h.post("/fabric/complete",
		CompleteRequest{Worker: "w1", Generation: 1, Unit: l1.Unit.ID,
			Records: []resilience.Record{outside}}, &cr); code != http.StatusBadRequest {
		t.Errorf("out-of-unit record: status %d, want 400", code)
	}
	if h.j.Len() != 0 {
		t.Errorf("rejected shipments reached the journal (%d records)", h.j.Len())
	}
	h.cancel()
}

func TestCoordinatorFinishAndDrain(t *testing.T) {
	h := newHarness(t, nil)
	h.c.Finish()
	var camp CampaignResponse
	h.get("/fabric/campaign?worker=w1", &camp)
	if !camp.Done {
		t.Fatalf("campaign poll after Finish = %+v, want done", camp)
	}
	if lr := h.lease("w2"); !lr.Done {
		t.Fatalf("lease after Finish = %+v, want done", lr)
	}
	// The harness's own probe worker must hear Done too, or the drain
	// (rightly) waits for it until the timeout.
	h.get("/fabric/campaign?worker=probe", &camp)
	// Every worker that spoke to us has now heard Done, so the drain
	// returns well before its timeout.
	start := time.Now()
	h.c.awaitDrain(5 * time.Second)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("awaitDrain took %v with a drained fleet", elapsed)
	}
	h.cancel()
}

func TestCoordinatorStatusEndpoint(t *testing.T) {
	h := newHarness(t, nil)
	h.lease("w1")
	var st Status
	h.get("/fabric/status", &st)
	if st.Generation != 1 || st.Units != 3 || st.UnitsLeased != 1 || st.LeasesGranted != 1 {
		t.Errorf("status = %+v", st)
	}
	if len(st.Leases) != 1 || st.Leases[0].Worker != "w1" {
		t.Errorf("status leases = %+v", st.Leases)
	}
	found := false
	for _, w := range st.Workers {
		if w.Name == "w1" {
			found = true
		}
	}
	if !found {
		t.Errorf("status workers missing w1: %+v", st.Workers)
	}
	h.cancel()
}

func TestAutoUnitSize(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {31, 1}, {64, 2}, {2000, 62}, {100000, 256},
	} {
		if got := autoUnitSize(tc.n); got != tc.want {
			t.Errorf("autoUnitSize(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// Held requests. These harnesses hold for the real holdCap, measured on
// the fake clock, so a test that passes did not wait out any hold.

// awaitHeld blocks until the coordinator has n requests of worker parked.
func (h *harness) awaitHeld(worker string, n int) {
	h.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		h.c.mu.Lock()
		ws := h.c.workers[worker]
		held := 0
		if ws != nil {
			held = ws.held
		}
		h.c.mu.Unlock()
		if held == n {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("worker %q has %d held requests, want %d", worker, held, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// askAsync sends one request from its own goroutine and delivers the
// decoded answer (the zero T if ctx ended the request first).
func askAsync[T any](h *harness, ctx context.Context, method, path string, in any) <-chan T {
	out := make(chan T, 1)
	go func() {
		var v T
		if err := callJSON(ctx, method, h.srv.URL+path, in, &v); err != nil && ctx.Err() == nil {
			h.t.Errorf("held %s %s: %v", method, path, err)
		}
		out <- v
	}()
	return out
}

func (h *harness) leaseAsync(ctx context.Context, worker string) <-chan LeaseResponse {
	return askAsync[LeaseResponse](h, ctx, http.MethodPost, "/fabric/lease", LeaseRequest{Worker: worker, Generation: 1})
}

func (h *harness) campaignAsync(ctx context.Context, worker string) <-chan CampaignResponse {
	return askAsync[CampaignResponse](h, ctx, http.MethodGet, "/fabric/campaign?worker="+worker, nil)
}

// callJSON is one coordinator request (in nil sends no body) that can be
// abandoned through ctx and reports failure as an error, so it is usable
// off the test goroutine.
func callJSON(ctx context.Context, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// receive waits for a held request's answer, failing the test if it is
// still held five real seconds later: every test below triggers the
// wake itself.
func receive[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still held", what)
		panic("unreachable")
	}
}

// leaseAllAndPark leases the harness's three units to w1..w3 and parks
// w4's lease request behind them.
func leaseAllAndPark(t *testing.T, h *harness) (first *LeaseUnit, parked <-chan LeaseResponse) {
	t.Helper()
	for i, w := range []string{"w1", "w2", "w3"} {
		lr := h.lease(w)
		if lr.Unit == nil {
			t.Fatalf("lease %s: %+v", w, lr)
		}
		if i == 0 {
			first = lr.Unit
		}
	}
	parked = h.leaseAsync(context.Background(), "w4")
	h.awaitHeld("w4", 1)
	return first, parked
}

func newHoldingHarness(t *testing.T) *harness {
	t.Helper()
	h := newIdleHarness(t, nil, holdCap)
	h.coordinate()
	return h
}

func TestHoldCapBelowClientTimeout(t *testing.T) {
	// A hold that outlasts the worker's client timeout turns every idle
	// period into client-side timeouts, retries and backoff.
	if holdCap >= clientTimeout {
		t.Fatalf("holdCap %v must stay below the default client timeout %v", holdCap, clientTimeout)
	}
	if c := NewCoordinator(resilience.New(), Options{}); c.hold != holdCap {
		t.Fatalf("coordinator holds for %v, want holdCap %v", c.hold, holdCap)
	}
}

func TestHeldLeaseGrantedOnPartialShipment(t *testing.T) {
	h := newHoldingHarness(t)
	first, parked := leaseAllAndPark(t, h)
	// w1 ships half its unit: the lease is released, and the held
	// request — not a later poll — gets the unit.
	cr := h.complete("w1", first.ID, []resilience.Record{record(first.Indices[0], "Benign", "w1")})
	if !cr.OK {
		t.Fatalf("partial complete: %+v", cr)
	}
	lr := receive(t, "lease after a partial shipment", parked)
	if lr.Unit == nil || lr.Unit.ID != first.ID || lr.Unit.Stolen != 0 {
		t.Fatalf("held lease answered %+v, want unit %d released by its owner", lr, first.ID)
	}
	h.awaitHeld("w4", 0)
	h.cancel()
}

func TestHeldLeaseStealsAtExpiry(t *testing.T) {
	h := newHoldingHarness(t)
	_, parked := leaseAllAndPark(t, h)
	// Exactly the TTL: a lease is over at its expiry, not after it.
	h.clock.Advance(time.Second)
	lr := receive(t, "lease at the TTL", parked)
	if lr.Unit == nil || lr.Unit.Stolen != 1 {
		t.Fatalf("held lease answered %+v, want a stolen unit", lr)
	}
	// One request from w4 did it: three grants before, one steal.
	if st := h.c.Status(); st.LeasesGranted != 4 || st.LeasesExpired != 3 {
		t.Errorf("granted %d expired %d, want 4 and 3", st.LeasesGranted, st.LeasesExpired)
	}
	h.cancel()
}

func TestHeldLeaseWakesOnCampaignEnd(t *testing.T) {
	h := newHoldingHarness(t)
	_, parked := leaseAllAndPark(t, h)
	h.cancel() // Coordinate's ctx: the campaign aborts
	if lr := receive(t, "lease at campaign abort", parked); !lr.Stale {
		t.Fatalf("held lease answered %+v at campaign end, want stale", lr)
	}
}

func TestHeldCampaignPublishFinishAndDrain(t *testing.T) {
	h := newIdleHarness(t, nil, holdCap)
	parked := h.campaignAsync(context.Background(), "w1")
	h.awaitHeld("w1", 1)
	h.coordinate()
	camp := receive(t, "campaign poll at publish", parked)
	if camp.Spec == nil || camp.Spec.Generation != 1 || camp.Done {
		t.Fatalf("held campaign poll answered %+v, want generation 1", camp)
	}

	// Between campaigns again: Finish must not wait out the hold, and
	// the drain must wait for the held worker to hear Done.
	h.cancel()
	if err := <-h.coordErr; err == nil {
		t.Fatal("Coordinate survived its cancelled context")
	}
	parked = h.campaignAsync(context.Background(), "w1")
	h.awaitHeld("w1", 1)
	h.clock.Advance(10 * time.Second)
	h.awaitHeld("w1", 1)
	drained := make(chan struct{})
	go func() {
		// The probe worker of coordinate() never hears Done and was last
		// seen 10 (fake) seconds ago: aged out. w1 is held: waited for.
		h.c.awaitDrain(5 * time.Second)
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("awaitDrain returned with a worker still on hold and Finish not called")
	case <-time.After(50 * time.Millisecond):
	}
	h.c.Finish()
	if camp := receive(t, "campaign poll at Finish", parked); !camp.Done {
		t.Fatalf("held campaign poll answered %+v at Finish, want done", camp)
	}
	receive(t, "awaitDrain after the held worker heard Done", drained)
}

func TestHeldRequestReleasedWhenClientCancels(t *testing.T) {
	h := newHoldingHarness(t)
	for _, w := range []string{"w1", "w2", "w3"} {
		h.lease(w)
	}
	h.cancel() // between campaigns: campaign polls are held too
	<-h.coordErr
	ctx, cancel := context.WithCancel(context.Background())
	parkedCampaign := h.campaignAsync(ctx, "w4")
	h.awaitHeld("w4", 1)
	h2 := newHoldingHarness(t)
	for _, w := range []string{"w1", "w2", "w3"} {
		h2.lease(w)
	}
	parkedLease := h2.leaseAsync(ctx, "w4")
	h2.awaitHeld("w4", 1)
	cancel()
	<-parkedCampaign
	<-parkedLease
	h.awaitHeld("w4", 0)
	h2.awaitHeld("w4", 0)
	if st := h2.c.Status(); st.LeasesGranted != 3 {
		t.Errorf("a vanished client was leased a unit: %d grants, want 3", st.LeasesGranted)
	}
	h2.cancel()
	// Close waits for outstanding handlers: it returns only because the
	// cancelled request's handler is gone.
	closed := make(chan struct{})
	go func() {
		h.srv.Close()
		close(closed)
	}()
	receive(t, "httptest.Server.Close", closed)
}

func TestHoldCapExpiryAnswersAsWithoutHold(t *testing.T) {
	rawBody := func(resp *http.Response, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.Status + " " + resp.Header.Get("Content-Type") + " " + buf.String()
	}
	leaseBody := func(h *harness) string {
		b, _ := json.Marshal(LeaseRequest{Worker: "w4", Generation: 1})
		return rawBody(http.Post(h.srv.URL+"/fabric/lease", "application/json", bytes.NewReader(b)))
	}
	campaignBody := func(h *harness) string {
		return rawBody(http.Get(h.srv.URL + "/fabric/campaign?worker=w4"))
	}
	const hold = 300 * time.Millisecond // below the 1s TTL: no lease expires meanwhile

	// Lease, everything leased elsewhere.
	plain := newHarness(t, nil)
	held := newIdleHarness(t, nil, hold)
	held.coordinate()
	for _, h := range []*harness{plain, held} {
		for _, w := range []string{"w1", "w2", "w3"} {
			h.lease(w)
		}
	}
	want := leaseBody(plain)
	got := make(chan string, 1)
	go func() { got <- leaseBody(held) }()
	held.awaitHeld("w4", 1)
	held.clock.Advance(hold)
	if g := receive(t, "lease at the hold cap", got); g != want || !strings.HasSuffix(g, "{\"wait\":true}\n") {
		t.Errorf("lease at the cap answered %q, a coordinator that does not hold %q", g, want)
	}
	plain.cancel()
	held.cancel()

	// Campaign poll, nothing published.
	plain = newIdleHarness(t, nil, 0)
	held = newIdleHarness(t, nil, hold)
	want = campaignBody(plain)
	go func() { got <- campaignBody(held) }()
	held.awaitHeld("w4", 1)
	held.clock.Advance(hold)
	if g := receive(t, "campaign poll at the hold cap", got); g != want || !strings.HasSuffix(g, "{}\n") {
		t.Errorf("campaign poll at the cap answered %q, a coordinator that does not hold %q", g, want)
	}
}

func TestHeldFiftyWakeOnOnePublish(t *testing.T) {
	h := newIdleHarness(t, nil, holdCap)
	const holders = 50
	var parked []<-chan CampaignResponse
	for i := 0; i < holders; i++ {
		w := fmt.Sprintf("h%d", i)
		parked = append(parked, h.campaignAsync(context.Background(), w))
	}
	for i := 0; i < holders; i++ {
		h.awaitHeld(fmt.Sprintf("h%d", i), 1)
	}
	h.coordinate()
	for i, ch := range parked {
		if camp := receive(t, fmt.Sprintf("holder %d", i), ch); camp.Spec == nil {
			t.Errorf("holder %d woke to %+v, want the published spec", i, camp)
		}
	}
	h.cancel()
}
