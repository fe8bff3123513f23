package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event is a typed structured event. EventType is the discriminator
// written into the JSONL envelope's "type" field.
type Event interface {
	EventType() string
}

// PhaseEvent marks a campaign phase boundary (compile, golden, profile,
// inject) or a named lifecycle point of a tool run.
type PhaseEvent struct {
	App   string `json:"app,omitempty"`
	Phase string `json:"phase"`
}

func (PhaseEvent) EventType() string { return "phase" }

// InjectionPlannedEvent records one sampled injection plan: which dynamic
// instance of which static instruction gets which corruption mask.
type InjectionPlannedEvent struct {
	App      string `json:"app,omitempty"`
	Index    int    `json:"index"`
	Addr     uint64 `json:"addr"`
	Instance uint64 `json:"instance"`
	Mask     uint64 `json:"mask"`
}

func (InjectionPlannedEvent) EventType() string { return "injection_planned" }

// SignalEvent records a crash-causing signal observed by LetGo's monitor.
type SignalEvent struct {
	Signal      string `json:"signal"`
	PC          uint64 `json:"pc"`
	Retired     uint64 `json:"retired"`
	Intercepted bool   `json:"intercepted"`
}

func (SignalEvent) EventType() string { return "signal" }

// HeuristicEvent records one modifier action: h1_int_fill, h1_float_fill,
// h2_sp_repair or h2_bp_repair, plus the PC advance itself (pc_advance).
type HeuristicEvent struct {
	Heuristic string `json:"heuristic"`
	PC        uint64 `json:"pc"`
	NewPC     uint64 `json:"new_pc,omitempty"`
}

func (HeuristicEvent) EventType() string { return "heuristic" }

// GiveUpEvent records LetGo declining (or being unable) to repair.
type GiveUpEvent struct {
	Reason string `json:"reason"` // repair_budget | unrepairable
	Signal string `json:"signal"`
	PC     uint64 `json:"pc"`
}

func (GiveUpEvent) EventType() string { return "giveup" }

// CampaignDoneEvent is the terminal close record of a campaign's event
// stream: every campaign that reaches its aggregation phase emits exactly
// one, even when interrupted mid-injection.
type CampaignDoneEvent struct {
	App         string `json:"app,omitempty"`
	N           int    `json:"n"`
	Completed   int    `json:"completed"`
	Resumed     int    `json:"resumed,omitempty"`
	Interrupted bool   `json:"interrupted,omitempty"`
}

func (CampaignDoneEvent) EventType() string { return "campaign_done" }

// CampaignFailedEvent is the terminal close record of a campaign that
// aborted with an error; exactly one of campaign_done or campaign_failed
// ends every campaign's stream, so consumers never see a dangling log.
type CampaignFailedEvent struct {
	App   string `json:"app,omitempty"`
	Phase string `json:"phase,omitempty"`
	Error string `json:"error"`
}

func (CampaignFailedEvent) EventType() string { return "campaign_failed" }

// ResumeEvent records journal-driven resume bookkeeping at the start of
// a campaign's injection phase.
type ResumeEvent struct {
	App     string `json:"app,omitempty"`
	Skipped int    `json:"skipped"` // injections restored from the journal
	Total   int    `json:"total"`
}

func (ResumeEvent) EventType() string { return "resume" }

// SimTransitionEvent records one Section-7 state-machine transition, with
// the arm's running cost and verified-useful-work accumulators.
type SimTransitionEvent struct {
	Arm    string  `json:"arm"` // standard | letgo
	From   string  `json:"from"`
	To     string  `json:"to"`
	Cost   float64 `json:"cost"`
	Useful float64 `json:"useful"`
}

func (SimTransitionEvent) EventType() string { return "sim_transition" }

// envelope is the JSONL line layout: a monotonic sequence number, the
// event type, and the typed payload.
type envelope struct {
	Seq   uint64 `json:"seq"`
	Type  string `json:"type"`
	Event Event  `json:"event"`
}

// Emitter writes structured events as JSON Lines: one envelope per line,
// sequence-numbered in emission order. It is safe for concurrent use; a
// nil Emitter discards everything.
type Emitter struct {
	mu  sync.Mutex
	w   io.Writer
	seq uint64
	err error
}

// NewEmitter returns an emitter writing to w.
func NewEmitter(w io.Writer) *Emitter {
	return &Emitter{w: w}
}

// Emit writes one event line. Write errors are sticky and reported by Err.
func (e *Emitter) Emit(ev Event) {
	if e == nil || ev == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	e.seq++
	line, err := json.Marshal(envelope{Seq: e.seq, Type: ev.EventType(), Event: ev})
	if err != nil {
		e.err = fmt.Errorf("obs: marshaling %T: %w", ev, err)
		return
	}
	if _, err := e.w.Write(append(line, '\n')); err != nil {
		e.err = err
	}
}

// Seq returns the number of events emitted so far.
func (e *Emitter) Seq() uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// Err returns the first write or marshal error, if any.
func (e *Emitter) Err() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Hub bundles the optional observability sinks threaded through the
// stack. A nil Hub (or nil fields) disables the corresponding sink; all
// methods are nil-safe.
type Hub struct {
	Reg *Registry
	Em  *Emitter
	// Status is the live tally behind /status and the progress line; nil
	// unless the invocation serves the live plane or draws -progress
	// (every CampaignStatus method is a no-op on nil). Whoever holds the
	// hub records a /status fact next to the metric that reports the
	// same fact.
	Status *CampaignStatus
}

// Counter returns the named counter, or nil without a registry.
func (h *Hub) Counter(name string, labels ...string) *Counter {
	if h == nil {
		return nil
	}
	return h.Reg.Counter(name, labels...)
}

// Gauge returns the named gauge, or nil without a registry.
func (h *Hub) Gauge(name string, labels ...string) *Gauge {
	if h == nil {
		return nil
	}
	return h.Reg.Gauge(name, labels...)
}

// Histogram returns the named histogram, or nil without a registry.
func (h *Hub) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if h == nil {
		return nil
	}
	return h.Reg.Histogram(name, buckets, labels...)
}

// Emit forwards ev to the hub's emitter, if any.
func (h *Hub) Emit(ev Event) {
	if h != nil {
		h.Em.Emit(ev)
	}
}
