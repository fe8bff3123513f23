// Package fabric spreads a campaign's injections over processes without
// changing a number in its table (docs/FABRIC.md).
//
// Distribution is the one entry point. Its zero value runs a campaign
// whole in this process; Shard runs work unit i/n into a journal; Merge
// renders from shard journals and executes nothing; Coordinate serves
// the campaign over HTTP as a queue of leased work units to remote
// Workers, which execute them and ship the classified records back.
// Open readies a distribution once per invocation, Session.Run runs its
// campaigns one at a time, and Close ends it.
//
// The fleet is built for failure (docs/FABRIC.md): an expired lease is
// stolen, a request with no answer yet is held rather than polled, the
// resilience journal is the coordinator's resume state, and writers that
// disagree about an injection abort the campaign.
//
// The protocol is four JSON endpoints under /fabric/ and carries no plan
// data: both sides derive the plan from the campaign key, so the wire
// moves only indices and classified records.
package fabric

import (
	"time"

	"github.com/letgo-hpc/letgo/internal/resilience"
)

// Default protocol parameters.
const (
	// DefaultLeaseTTL is how long a leased unit may go without a
	// heartbeat before the coordinator re-dispatches it.
	DefaultLeaseTTL = 10 * time.Second
	// DefaultPollInterval is the worker's floor spacing between idle
	// requests (see Worker.PollInterval). The coordinator holds a request
	// until it has an answer, so this is paid only against a coordinator
	// that answers "nothing yet" at once.
	DefaultPollInterval = 500 * time.Millisecond
)

// CampaignSpec describes the campaign the coordinator is currently
// distributing. It deliberately carries no plan payload: the worker
// re-derives the plan from the key (Plan is a pure function of it) and
// proves agreement by digest.
type CampaignSpec struct {
	// Generation increases by one for every campaign the coordinator
	// publishes within an invocation; every lease, heartbeat and
	// completion names the generation it belongs to, so requests from a
	// worker still executing a finished campaign are rejected as stale
	// instead of corrupting the next one.
	Generation int `json:"generation"`
	// Key identifies the campaign (app, mode, n, seed, model).
	Key resilience.Key `json:"key"`
	// ManifestDigest is the coordinator's inject.PlanManifest digest;
	// workers refuse to execute when their locally planned digest
	// differs.
	ManifestDigest string `json:"manifest_digest"`
	// Units and UnitSize describe the partition of [0, n).
	Units    int `json:"units"`
	UnitSize int `json:"unit_size"`
	// LeaseTTL is the coordinator's lease TTL; workers derive their
	// heartbeat cadence from it.
	LeaseTTL time.Duration `json:"lease_ttl_ns"`
}

// CampaignResponse answers GET /fabric/campaign.
type CampaignResponse struct {
	// Spec is the published campaign. The coordinator holds the request
	// while it is between campaigns and answers nil only when its hold
	// cap passes first (workers ask again).
	Spec *CampaignSpec `json:"spec,omitempty"`
	// Done means the whole invocation is over: workers should exit.
	Done bool `json:"done,omitempty"`
}

// LeaseRequest asks for one work unit (POST /fabric/lease).
type LeaseRequest struct {
	Worker     string `json:"worker"`
	Generation int    `json:"generation"`
}

// LeaseUnit is a granted lease: the unit's plan indices, to be executed
// and shipped back before the TTL runs out (or kept alive by heartbeat).
type LeaseUnit struct {
	ID      int   `json:"id"`
	Indices []int `json:"indices"`
	// Stolen counts prior expired leases on this unit — diagnostic
	// evidence of how contested the unit has been.
	Stolen int `json:"stolen,omitempty"`
}

// LeaseResponse answers a lease request. Exactly one of Unit, Wait,
// Stale or Done describes the outcome.
type LeaseResponse struct {
	Unit *LeaseUnit `json:"unit,omitempty"`
	// Wait: every pending unit is currently leased, and stayed leased
	// for as long as the coordinator held the request (a lease that
	// expires or is released meanwhile is granted to the held request —
	// that is what turns a straggler's unit into stolen work). Ask again.
	Wait bool `json:"wait,omitempty"`
	// Stale: the request's generation is no longer the published
	// campaign (finished, aborted, or superseded) — re-fetch
	// /fabric/campaign.
	Stale bool `json:"stale,omitempty"`
	// Done: the invocation is over; exit.
	Done bool `json:"done,omitempty"`
}

// HeartbeatRequest renews a lease (POST /fabric/heartbeat).
type HeartbeatRequest struct {
	Worker     string `json:"worker"`
	Generation int    `json:"generation"`
	Unit       int    `json:"unit"`
}

// HeartbeatResponse answers a heartbeat. OK=false means the lease is no
// longer this worker's — it expired and was re-dispatched, or the unit
// is already complete — and the worker should abandon the unit.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// CompleteRequest ships a finished unit's journal records
// (POST /fabric/complete).
type CompleteRequest struct {
	Worker     string              `json:"worker"`
	Generation int                 `json:"generation"`
	Unit       int                 `json:"unit"`
	Records    []resilience.Record `json:"records"`
}

// CompleteResponse answers a completion.
type CompleteResponse struct {
	// OK: the records were merged (possibly as benign duplicates). False
	// with empty Conflict means the request was stale (wrong
	// generation); false with Conflict set means the campaign aborted.
	OK bool `json:"ok"`
	// Duplicates counts shipped records that were already journaled with
	// an identical payload — the benign trace of a stolen-then-completed
	// unit.
	Duplicates int `json:"duplicates,omitempty"`
	// Conflict names a payload disagreement between writers for the same
	// injection. The campaign is aborted: determinism says this cannot
	// happen unless the fleet disagrees about what the campaign is.
	Conflict string `json:"conflict,omitempty"`
}

// LeaseStatus describes one live lease in the status snapshot.
type LeaseStatus struct {
	Unit             int     `json:"unit"`
	Worker           string  `json:"worker"`
	ExpiresInSeconds float64 `json:"expires_in_seconds"`
	Stolen           int     `json:"stolen,omitempty"`
}

// WorkerStatus describes one worker the coordinator has heard from.
type WorkerStatus struct {
	Name            string  `json:"name"`
	LastSeenSeconds float64 `json:"last_seen_seconds"`
	UnitsCompleted  int     `json:"units_completed"`
}

// Status is the GET /fabric/status snapshot: the coordinator's live
// view of the campaign, its queue, and its fleet.
type Status struct {
	Generation       int            `json:"generation"`
	Campaign         string         `json:"campaign,omitempty"`
	Done             bool           `json:"done,omitempty"`
	Units            int            `json:"units"`
	UnitsCompleted   int            `json:"units_completed"`
	UnitsLeased      int            `json:"units_leased"`
	UnitsPending     int            `json:"units_pending"`
	LeasesGranted    int            `json:"leases_granted"`
	LeasesExpired    int            `json:"leases_expired"`
	Heartbeats       int            `json:"heartbeats"`
	RecordsShipped   int            `json:"records_shipped"`
	DuplicateRecords int            `json:"duplicate_records,omitempty"`
	Conflict         string         `json:"conflict,omitempty"`
	Leases           []LeaseStatus  `json:"leases,omitempty"`
	Workers          []WorkerStatus `json:"workers,omitempty"`
}
