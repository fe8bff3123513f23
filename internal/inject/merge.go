package inject

import (
	"context"
	"fmt"

	"github.com/letgo-hpc/letgo/internal/resilience"
)

// PhaseMerge is the lifecycle phase of the pipeline's Merge stage, as
// reported to the hub and an Observer (merge runs compile/golden first,
// then this).
const PhaseMerge = "merge"

// Merge is MergeContext without cancellation.
func (c *Campaign) Merge(j *resilience.Journal) (*Result, error) {
	return c.MergeContext(context.Background(), j)
}

// MergeContext is the pipeline's Merge stage: it reads a set of shard
// journals (already combined latest-record-wins, e.g. by
// resilience.MergeFiles) and renders the campaign's final Result without
// executing a single injection. The plan-level facts a Result carries
// beyond the journal — golden instruction count, memory-dependency
// analysis sizes — are recomputed with the Plan stage's own front half
// (prepare: compile, analysis, one plain golden run; no profiling, no plan
// sampling, no waypoints), which determinism guarantees agree with what
// every shard derived.
//
// When the journals cover all N injections the merged Result — and the
// table rendered from it — is byte-identical to a single-process run's.
// Missing injections leave the Result partial (Interrupted set), exactly
// like an interrupted campaign, so callers can render what exists and
// re-run the missing shard. Writer-identity collisions are the caller's
// concern: detect them at combine time with resilience.MergeFiles.
func (c *Campaign) MergeContext(ctx context.Context, j *resilience.Journal) (*Result, error) {
	curPhase := ""
	p, err := c.prepare(ctx, func(name string) { curPhase = name; c.phase(name) }, "merge", false)
	if err != nil {
		c.failed(curPhase, err)
		return nil, err
	}
	return c.MergePlanned(p, j)
}

// MergePlanned is the Merge stage over a campaign this process has
// already planned (a coordinator renders the records its fleet shipped
// from the plan it published), so nothing is compiled or run again.
func (c *Campaign) MergePlanned(p *PlannedCampaign, j *resilience.Journal) (res *Result, err error) {
	defer func() {
		if err != nil {
			c.failed(PhaseMerge, err)
		}
	}()
	if j == nil {
		return nil, fmt.Errorf("inject: merge needs a journal")
	}
	c.phase(PhaseMerge)
	spMerge := c.Obs.StartSpan("merge", "app", c.App.Name)
	// Merge consumes journal records only, so the unit is just the index
	// universe [0, N); no plan list exists.
	unit := wholeUnit(p.Key, c.N)
	results := make([]Execution, c.N)
	completed := make([]bool, c.N)
	restored, err := c.restore(j, unit, results, completed)
	if err != nil {
		return nil, err
	}
	spMerge.End()

	res = c.aggregate(p, unit, results, completed, restored, EngineStats{Engine: "merge"})
	c.done(res)
	return res, nil
}
