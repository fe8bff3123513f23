package obs

import (
	"fmt"
	"sync"
	"time"
)

// StatusSnapshot is the JSON shape served by the observability plane's
// /status endpoint: a point-in-time view of the running (or last
// finished) campaign. The throttled progress line draws the same
// snapshot, so both show one rate and one ETA.
type StatusSnapshot struct {
	App  string `json:"app,omitempty"`
	Mode string `json:"mode,omitempty"`
	// Phase is the campaign's current lifecycle phase (compile, golden,
	// profile, inject, simulate, ...), or "done"/"failed" after the
	// terminal record.
	Phase string `json:"phase,omitempty"`
	N     int    `json:"n"`
	// Completed counts classified injections, including journal-restored
	// and quarantined ones (a supervised run's retired instructions, a
	// simulation's state transitions, with Outcomes keyed by arm).
	Completed   int            `json:"completed"`
	Resumed     int            `json:"resumed"`
	Quarantined int            `json:"quarantined"`
	Outcomes    map[string]int `json:"outcomes,omitempty"`
	// CampaignsDone counts campaigns this invocation has finished (a
	// multi-app table run is several campaigns in sequence), each once
	// however many work units it ran in.
	CampaignsDone int  `json:"campaigns_done"`
	Interrupted   bool `json:"interrupted,omitempty"`
	// ElapsedSeconds runs on the run's clock: from the start of the
	// executed work (Begin's time until then) to now, or to the end once
	// the campaign is done, interrupted or failed.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// RatePerSecond counts this run's own work only: Completed minus
	// Resumed over ElapsedSeconds, so a resumed campaign reports the
	// speed it is actually executing at.
	RatePerSecond float64 `json:"rate_per_second"`
	// ETASeconds is the work still owned (ShardPlanned, a unit's size or
	// N, less Completed) over RatePerSecond; 0 when unknown or once
	// nothing executes.
	ETASeconds float64 `json:"eta_seconds"`
	// CkptModel names the checkpoint cost model in effect (paper or
	// derived) for simulator runs; empty elsewhere.
	CkptModel string `json:"ckpt_model,omitempty"`
	// Shard identifies the work unit this process executes ("2/3") when
	// the campaign runs as one shard of a partitioned fabric, and
	// ShardPlanned counts the injections that unit owns. Absent for
	// whole-campaign runs.
	Shard        string `json:"shard,omitempty"`
	ShardPlanned int    `json:"shard_planned,omitempty"`
	// Analysis facts from the memory-dependency pass, when it ran: the
	// region partition size, the live (minimal checkpoint) region count,
	// and the derived-vs-full checkpoint byte sizes.
	AnalysisRegions        int    `json:"analysis_regions,omitempty"`
	AnalysisLiveRegions    int    `json:"analysis_live_regions,omitempty"`
	DerivedCheckpointBytes uint64 `json:"derived_checkpoint_bytes,omitempty"`
	FullStateBytes         uint64 `json:"full_state_bytes,omitempty"`
	// Merge facts from a -merge invocation (and the fabric coordinator's
	// final render): how many shard journals were combined and how their
	// writer-identity collisions split into benign-identical vs
	// conflicting. Absent outside merges.
	MergeJournals             int `json:"merge_journals,omitempty"`
	MergeIdenticalCollisions  int `json:"merge_identical_collisions,omitempty"`
	MergeConflictingCollision int `json:"merge_conflicting_collisions,omitempty"`
}

// CampaignStatus is the one live tally of a campaign: /status serves its
// Snapshot, and its progress line, if any, draws the same snapshot. All
// methods are safe for concurrent use and nil-safe, so it threads
// through the stack exactly like the other obs sinks. It is strictly
// passive.
type CampaignStatus struct {
	mu        sync.Mutex
	app, mode string
	phase     string
	n         int
	// owned is the work this run owns: N from Begin, or the unit Execute
	// was given.
	owned         int
	completed     int
	resumed       int
	quarantined   int
	outcomes      map[string]int
	campaignsDone int
	// counted says the current campaign is in campaignsDone already: a
	// fabric worker ends one Done per unit it executes.
	counted       bool
	interrupted   bool
	ckptModel     string
	shardIndex    int
	shardCount    int
	anRegions     int
	anLiveRegions int
	derivedBytes  uint64
	fullBytes     uint64
	// Merge facts are invocation-scoped, not campaign-scoped: set once
	// when the shard journals combine, they survive Begin's per-campaign
	// reset so every campaign rendered from the merge carries them.
	mergeJournals    int
	mergeIdentical   int
	mergeConflicting int
	// start and end bound the run's clock; end is zero while work
	// executes.
	start time.Time
	end   time.Time
	now   func() time.Time
	line  *Progress // nil: no progress line
}

// NewCampaignStatus returns an empty tracker, ready to tally before the
// first Begin, that draws its progress on line (nil for none).
func NewCampaignStatus(line *Progress) *CampaignStatus {
	return &CampaignStatus{now: time.Now, outcomes: make(map[string]int), line: line}
}

// SetClock replaces the time source (tests).
func (s *CampaignStatus) SetClock(now func() time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.now = now
	s.mu.Unlock()
}

// Begin resets the tracker for a new campaign of n injections.
func (s *CampaignStatus) Begin(app, mode string, n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.app, s.mode, s.n = app, mode, n
	s.phase = ""
	s.counted, s.interrupted = false, false
	s.shardIndex, s.shardCount = 0, 0
	s.anRegions, s.anLiveRegions = 0, 0
	s.derivedBytes, s.fullBytes = 0, 0
	s.reset(n)
}

// Execute starts the work this process executes in the current phase:
// owned units of it (0 when the total is unknown). The tally and the
// run's clock restart, so a fabric worker's units are counted one at a
// time, and the progress line opens with a first draw labelled by the
// phase and the app.
func (s *CampaignStatus) Execute(owned int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reset(owned)
	if s.line != nil {
		s.line.draw(s.start, s.snapshot(s.start), s.owned, false)
	}
}

// reset zeroes the tally and restarts the clock. Callers hold s.mu.
func (s *CampaignStatus) reset(owned int) {
	s.owned = owned
	s.completed, s.resumed, s.quarantined = 0, 0, 0
	s.outcomes = make(map[string]int)
	s.start, s.end = s.now(), time.Time{}
}

// SetCkptModel records the checkpoint cost model in effect (sim runs).
func (s *CampaignStatus) SetCkptModel(model string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.ckptModel = model
	s.mu.Unlock()
}

// SetShard records the work unit this process executes: shard index of
// count. The injections it owns are the ones Execute is given.
func (s *CampaignStatus) SetShard(index, count int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.shardIndex, s.shardCount = index, count
	s.mu.Unlock()
}

// SetMerge records how the invocation's shard journals combined: the
// journal count and the identical/conflicting collision split. Unlike
// the per-campaign fields, these persist across Begin.
func (s *CampaignStatus) SetMerge(journals, identical, conflicting int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.mergeJournals, s.mergeIdentical, s.mergeConflicting = journals, identical, conflicting
	s.mu.Unlock()
}

// SetAnalysis records the memory-dependency analysis summary: region
// partition size, live region count, and derived-vs-full checkpoint
// bytes.
func (s *CampaignStatus) SetAnalysis(regions, liveRegions int, derivedBytes, fullBytes uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.anRegions, s.anLiveRegions = regions, liveRegions
	s.derivedBytes, s.fullBytes = derivedBytes, fullBytes
	s.mu.Unlock()
}

// SetPhase records the campaign entering a lifecycle phase.
func (s *CampaignStatus) SetPhase(phase string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.phase = phase
	s.mu.Unlock()
}

// Record tallies one classified injection (one simulator transition,
// class being its arm).
func (s *CampaignStatus) Record(class string, quarantined bool) {
	s.record(class, quarantined, false)
}

// RecordRestored tallies one injection restored from the resume journal:
// it counts toward Completed, Resumed and the per-class tallies, so a
// resumed campaign's /status matches the table it will render, but not
// toward the rate, which measures this run's own work.
func (s *CampaignStatus) RecordRestored(class string, quarantined bool) {
	s.record(class, quarantined, true)
}

// record tallies one injection, executed or restored.
func (s *CampaignStatus) record(class string, quarantined, restored bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completed++
	s.outcomes[class]++
	if quarantined {
		s.quarantined++
	}
	if restored {
		s.resumed++
	}
	s.redraw(false)
}

// SetCompleted sets the completed count outright (a supervised run's
// retired instructions).
func (s *CampaignStatus) SetCompleted(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completed = n
	s.redraw(false)
}

// redraw draws the open progress line when its interval has passed, or,
// when final, ends it. Callers hold s.mu.
func (s *CampaignStatus) redraw(final bool) {
	if s.line == nil || s.line.last.IsZero() {
		return // no line open
	}
	if now := s.now(); final || now.Sub(s.line.last) >= s.line.interval {
		s.line.draw(now, s.snapshot(now), s.owned, final)
	}
}

// Done marks the campaign finished (or interrupted mid-flight), ending
// its progress line.
func (s *CampaignStatus) Done(interrupted bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.end = s.now()
	s.redraw(true)
	if !s.counted {
		s.campaignsDone++
		s.counted = true
	}
	s.interrupted = interrupted
	if interrupted {
		s.phase = "interrupted"
	} else {
		s.phase = "done"
	}
}

// Failed marks the campaign aborted, ending its progress line.
func (s *CampaignStatus) Failed() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.end = s.now()
	s.redraw(true)
	s.phase = "failed"
}

// Snapshot returns the current status. Safe on a nil tracker (zero
// snapshot).
func (s *CampaignStatus) Snapshot() StatusSnapshot {
	if s == nil {
		return StatusSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshot(s.now())
}

// snapshot is Snapshot at now. Callers hold s.mu.
func (s *CampaignStatus) snapshot(now time.Time) StatusSnapshot {
	snap := StatusSnapshot{
		App: s.app, Mode: s.mode, Phase: s.phase, N: s.n,
		Completed: s.completed, Resumed: s.resumed, Quarantined: s.quarantined,
		CampaignsDone: s.campaignsDone, Interrupted: s.interrupted,
		CkptModel:       s.ckptModel,
		AnalysisRegions: s.anRegions, AnalysisLiveRegions: s.anLiveRegions,
		DerivedCheckpointBytes: s.derivedBytes, FullStateBytes: s.fullBytes,
		MergeJournals: s.mergeJournals, MergeIdenticalCollisions: s.mergeIdentical,
		MergeConflictingCollision: s.mergeConflicting,
	}
	if s.shardCount > 0 {
		snap.Shard = fmt.Sprintf("%d/%d", s.shardIndex, s.shardCount)
		snap.ShardPlanned = s.owned
	}
	if len(s.outcomes) > 0 {
		snap.Outcomes = make(map[string]int, len(s.outcomes))
		for k, v := range s.outcomes {
			snap.Outcomes[k] = v
		}
	}
	if !s.end.IsZero() {
		now = s.end
	}
	if !s.start.IsZero() {
		snap.ElapsedSeconds = now.Sub(s.start).Seconds()
	}
	if snap.ElapsedSeconds > 0 {
		snap.RatePerSecond = float64(s.completed-s.resumed) / snap.ElapsedSeconds
	}
	if snap.RatePerSecond > 0 && s.completed < s.owned && s.end.IsZero() {
		snap.ETASeconds = float64(s.owned-s.completed) / snap.RatePerSecond
	}
	return snap
}
