package inject

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/letgo-hpc/letgo/internal/analysis"
	"github.com/letgo-hpc/letgo/internal/engine"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/resilience"
	"github.com/letgo-hpc/letgo/internal/stats"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// PlannedCampaign is the output of the pipeline's Plan stage: everything
// the campaign derives before the first injection executes — the compiled
// program, the memory-dependency analysis, the golden run (with the fork
// engine's waypoint ladder when applicable), the dynamic profile, the
// hang budget, and the full pre-sampled injection plan list.
//
// The stage is deterministic: for a fixed (App, Mode, N, Seed, Model,
// Engine) every process computes the same PlannedCampaign,
// which is what lets independent shard processes each plan locally and
// still partition one coherent campaign (see Shard). Manifest exposes the
// serializable essence of the plan for provenance checks across
// processes.
type PlannedCampaign struct {
	// Key identifies the campaign in resume journals and shard merges.
	Key resilience.Key
	// Plans are the N pre-sampled injections, in plan-index order.
	Plans []Plan
	// Budget is the per-injection retired-instruction hang budget.
	Budget uint64
	// GoldenRetired is the golden run's dynamic instruction count.
	GoldenRetired uint64

	start     time.Time
	prog      *isa.Program
	an        *pin.Analysis
	prof      *pin.Profile
	gold      *engine.Golden // non-nil only for the fork engine
	goldenOut []float64
	stateSet  *analysis.StateSet

	// whens[i] is plan i's dynamic index in the golden run, resolved by
	// the first fork-engine unit to execute and shared by every later one.
	resolve  sync.Once
	whens    []uint64
	whensErr error
}

// resolved returns every plan's dynamic index, by plan index. The first
// call replays the golden run once under a site-matching hook (the
// resolve_sites span); every unit of the plan, concurrent or not, shares
// that one replay. first is true only for the call that performed it,
// which is thereby the one that charges the golden recording's forks and
// pages to its EngineStats — once per plan, not once per unit.
func (p *PlannedCampaign) resolved(hub *obs.Hub) (whens []uint64, first bool, err error) {
	p.resolve.Do(func() {
		defer hub.StartSpan("resolve_sites").End()
		first = true
		sites := make([]pin.Site, len(p.Plans))
		for i, pl := range p.Plans {
			sites[i] = pl.Site
		}
		p.whens, p.whensErr = p.gold.ResolveWhens(sites)
	})
	return p.whens, first, p.whensErr
}

// PlanManifest is the serializable view of a PlannedCampaign: the
// campaign key plus every derived fact a foreign process needs to verify
// it is executing (or merging) the same campaign. Two processes planning
// the same campaign produce identical manifests.
type PlanManifest struct {
	Key           resilience.Key `json:"key"`
	Budget        uint64         `json:"budget"`
	GoldenRetired uint64         `json:"golden_retired"`
	Plans         []PlanRecord   `json:"plans"`
}

// PlanRecord is one injection plan in manifest form.
type PlanRecord struct {
	Addr     uint64 `json:"addr"`
	Instance uint64 `json:"instance"`
	Mask     uint64 `json:"mask"`
}

// Manifest returns the plan's serializable form.
func (p *PlannedCampaign) Manifest() PlanManifest {
	m := PlanManifest{
		Key: p.Key, Budget: p.Budget, GoldenRetired: p.GoldenRetired,
		Plans: make([]PlanRecord, len(p.Plans)),
	}
	for i, pl := range p.Plans {
		m.Plans[i] = PlanRecord{Addr: pl.Site.Addr, Instance: pl.Site.Instance, Mask: pl.Mask}
	}
	return m
}

// Encode renders the manifest in its canonical byte form: compact JSON
// with the struct's field order. Two processes that planned the same
// campaign produce byte-identical encodings, which is what makes the
// Digest a cheap cross-process provenance check.
func (m PlanManifest) Encode() ([]byte, error) {
	return json.Marshal(m)
}

// Digest returns the hex SHA-256 of the canonical encoding. A fabric
// worker compares its locally planned digest against the coordinator's
// before executing anything: a mismatch means the two processes disagree
// about what the campaign is (different binary, seed, or model) and no
// unit from that plan may be trusted.
func (m PlanManifest) Digest() (string, error) {
	b, err := m.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ParsePlanManifest inverts Encode. It is strict — unknown fields and
// trailing garbage are errors, not silently dropped — because a manifest
// crosses process and version boundaries: accepting a field this binary
// does not understand would let two processes believe they agree on a
// plan they do not. Valid manifests round-trip byte-stably through
// Encode, and hostile input fails with an error, never a panic
// (FuzzPlanManifest pins both properties).
func ParsePlanManifest(data []byte) (PlanManifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m PlanManifest
	if err := dec.Decode(&m); err != nil {
		return PlanManifest{}, fmt.Errorf("inject: bad plan manifest: %w", err)
	}
	// A second value after the manifest object is as suspect as an
	// unknown field.
	if dec.More() {
		return PlanManifest{}, fmt.Errorf("inject: bad plan manifest: trailing data")
	}
	return m, nil
}

// PlanContext runs the pipeline's Plan stage in isolation: compile,
// memory-dependency analysis, golden run, profile, and plan sampling,
// with no injection executed. Run composes it with Shard and Execute;
// callers that split a campaign across processes call it directly. The
// fork engine records its golden run once with waypoint snapshots and
// observes the profile on the way; the rerun engine executes it plainly
// and pays a second execution for profiling.
func (c *Campaign) PlanContext(ctx context.Context) (p *PlannedCampaign, err error) {
	curPhase := ""
	defer func() {
		if err != nil {
			c.failed(curPhase, err)
		}
	}()
	setPhase := func(name string) {
		curPhase = name
		c.phase(name)
	}
	if p, err = c.prepare(ctx, setPhase, c.Engine.String(), c.Engine != EngineRerun); err != nil {
		return nil, err
	}

	// Profiling phase (Section 5.4).
	setPhase(PhaseProfile)
	spProfile := c.Obs.StartSpan("profile", "app", c.App.Name, "engine", c.Engine.String())
	if c.Engine == EngineRerun {
		if p.prof, err = p.an.ProfileRun(vm.Config{}, profileBudget); err != nil {
			return nil, err
		}
	} else {
		p.prof = p.gold.Profile()
	}
	spProfile.End()

	// Pre-sample all plans from the root RNG so results do not depend on
	// worker scheduling — or, since the sampling is a pure function of
	// the seed, on which process executes which plan.
	setPhase(PhasePlan)
	spPlan := c.Obs.StartSpan("plan", "app", c.App.Name)
	rng := stats.NewRNG(c.Seed)
	p.Plans = make([]Plan, c.N)
	for i := range p.Plans {
		if p.Plans[i], err = SamplePlanModel(p.prog, p.prof, rng, c.Model); err != nil {
			return nil, err
		}
		if c.Observer != nil {
			c.Observer.Planned(i, p.Plans[i])
		}
		if c.Obs != nil {
			pl := p.Plans[i]
			c.Obs.Emit(obs.InjectionPlannedEvent{
				App: c.App.Name, Index: i, Addr: pl.Site.Addr, Instance: pl.Site.Instance, Mask: pl.Mask,
			})
		}
	}
	spPlan.End()
	return p, nil
}

// prepare is the front half the Plan and Merge stages share: validate,
// compile, analyse, execute the golden run (recorded with waypoints for
// the fork engine when record is set, plainly otherwise), check its
// acceptance and derive the hang budget. engineLabel names the golden span's
// engine attribute.
func (c *Campaign) prepare(ctx context.Context, setPhase func(string), engineLabel string, record bool) (*PlannedCampaign, error) {
	if c.App == nil || c.N <= 0 {
		return nil, fmt.Errorf("inject: campaign needs an app and a positive N")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.registerMetrics()
	if c.Obs != nil {
		c.Obs.Status.Begin(c.App.Name, c.Mode.String(), c.N)
	}
	p := &PlannedCampaign{Key: c.journalKey(), start: time.Now()}

	setPhase(PhaseCompile)
	spCompile := c.Obs.StartSpan("compile", "app", c.App.Name)
	prog, err := c.App.Compile()
	if err != nil {
		return nil, err
	}
	p.prog = prog
	p.an = pin.Analyze(prog)
	spCompile.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Memory-dependency analysis: derive the app's minimal checkpoint set
	// and repair-safety facts once, ahead of the workers. Apps without
	// declared acceptance globals (ad-hoc programs) skip it.
	if err := c.analyze(p); err != nil {
		return nil, err
	}

	// Golden run: acceptance data and output to compare against.
	setPhase(PhaseGolden)
	spGolden := c.Obs.StartSpan("golden", "app", c.App.Name, "engine", engineLabel)
	var gm *vm.Machine
	if record {
		if p.gold, err = engine.RecordObs(prog, vm.Config{}, 0, profileBudget, c.Obs); err != nil {
			return nil, fmt.Errorf("inject: golden run of %s: %w", c.App.Name, err)
		}
		gm = p.gold.ForkFinal()
	} else {
		if gm, err = vm.New(prog, vm.Config{}); err != nil {
			return nil, err
		}
		if err := gm.Run(profileBudget); err != nil {
			return nil, fmt.Errorf("inject: golden run of %s: %w", c.App.Name, err)
		}
	}
	if err := c.checkGolden(p, gm); err != nil {
		return nil, err
	}
	spGolden.End()
	return p, ctx.Err()
}

// profileBudget bounds the golden and profiling executions.
const profileBudget = 1 << 32

// budgetFactor scales the per-injection hang budget relative to the golden
// dynamic instruction count.
const budgetFactor = 3

// analyze runs the memory-dependency analysis for apps that declare
// acceptance globals and records the derived facts on p.
func (c *Campaign) analyze(p *PlannedCampaign) error {
	outputs := c.App.AcceptanceGlobals()
	if len(outputs) == 0 {
		return nil
	}
	spAnalysis := c.Obs.StartSpan("analysis", "app", c.App.Name)
	ss, err := p.an.CheckpointSet(outputs)
	spAnalysis.End()
	if err != nil {
		return fmt.Errorf("inject: analysis of %s: %w", c.App.Name, err)
	}
	p.stateSet = ss
	c.reportAnalysis(p.an, ss)
	return nil
}

// checkGolden validates the golden machine's acceptance, captures the
// golden output, and derives the hang budget.
func (c *Campaign) checkGolden(p *PlannedCampaign, gm *vm.Machine) error {
	goldenOK, err := c.App.Accept(gm)
	if err != nil {
		return err
	}
	if !goldenOK {
		return fmt.Errorf("inject: golden run of %s fails its acceptance check", c.App.Name)
	}
	if p.goldenOut, err = c.App.Output(gm); err != nil {
		return err
	}
	p.GoldenRetired = gm.Retired
	p.Budget = budgetFactor*gm.Retired + 100_000
	return nil
}
