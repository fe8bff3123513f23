package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/fabric"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/outcome"
	"github.com/letgo-hpc/letgo/internal/report"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

// Load shape shared by all workloads: a closed loop of exactly two
// injection workers, each starting its next injection when the previous
// one is classified. Every program setting not named here is the
// shipped default.
const (
	injectWorkers = 2
	shardCount    = 3
	fleetUnitSize = 10
)

// sizing is the injections-per-campaign of each workload. The tests run
// the same drivers at a tiny size: few injections, the first maxApps
// apps of each workload, a short fabric poll. The benchmark always runs
// fullSize, whose zeros select every app and fabric.DefaultPollInterval.
type sizing struct {
	table3N, prefixN, compareN int
	maxApps                    int
	poll                       time.Duration
}

func (s sizing) trim(list []*apps.App) []*apps.App {
	if s.maxApps > 0 && s.maxApps < len(list) {
		return list[:s.maxApps]
	}
	return list
}

var fullSize = sizing{table3N: 2000, prefixN: 1000, compareN: 400}

// planCall is one PlanContext the driver makes.
type planCall struct {
	app    *apps.App
	mode   inject.Mode
	n      int
	engine inject.Engine
	shard  inject.ShardSpec
}

// workload is one declared workload: the name and reason BENCHMARK.json
// repeats, and its driver.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// plans lists every PlanContext call of one pass, in order: the
	// workload's set-up.
	plans func(sizing) []planCall
	run   func(*env, *passResult) error
}

var workloads = []workload{
	{wlTable3, "six apps x LetGo-E on the fork engine, no journal: vm+mem run-out on COW forks dominates; set-up, resilience and fabric do nothing", table3Plans, runTable3},
	{wlPrefix, "three apps x NoLetGo on the rerun engine: same vm/mem dispatch from PC 0 on a fresh machine, engine waypoints/forks/COW bypassed", prefixPlans, runPrefix},
	{wlShard, "12 campaigns as three -shard i/3 journals then MergeFiles+Merge: resilience written and read, PlanContext paid per shard, no HTTP", shardPlans, runShardMerge},
	{wlFleet, "the same 12 campaigns through a coordinator and 2 loopback workers: lease/heartbeat/complete, one growing journal, idle polling", fleetPlans, runFleet},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func table3Plans(s sizing) []planCall {
	var out []planCall
	for _, a := range s.trim(apps.All()) {
		out = append(out, planCall{app: a, mode: inject.LetGoE, n: s.table3N})
	}
	return out
}

func prefixPlans(s sizing) []planCall {
	var list []*apps.App
	for _, name := range []string{"LULESH", "CLAMR", "PENNANT"} {
		a, _ := apps.ByName(name)
		list = append(list, a)
	}
	var out []planCall
	for _, a := range s.trim(list) {
		out = append(out, planCall{app: a, mode: inject.NoLetGo, n: s.prefixN, engine: inject.EngineRerun})
	}
	return out
}

// comparePlans are the 12 campaigns of `letgo-inject -apps all -compare`.
func comparePlans(s sizing) []planCall {
	var out []planCall
	for _, a := range s.trim(apps.All()) {
		for _, m := range []inject.Mode{inject.LetGoB, inject.LetGoE} {
			out = append(out, planCall{app: a, mode: m, n: s.compareN})
		}
	}
	return out
}

func shardPlans(s sizing) []planCall {
	var out []planCall
	for i := 1; i <= shardCount; i++ {
		for _, pc := range comparePlans(s) {
			pc.shard = inject.ShardSpec{Index: i, Count: shardCount}
			out = append(out, pc)
		}
	}
	return out
}

func fleetPlans(s sizing) []planCall { return comparePlans(s) }

// env is what one pass of a workload runs in.
type env struct {
	seed uint64
	size sizing
	tmp  string  // fresh directory for journals
	tr   *tracer // nil on untraced passes
	hub  *obs.Hub
	svc  *serviceObserver // nil on untraced passes
}

// passResult is everything one pass produced.
type passResult struct {
	wall, setup time.Duration
	plans       int

	planned, classified, quarantined int
	digests                          map[string]string // campaign key -> table digest
	sizes                            map[string]int    // campaign key -> N
	violations                       []string          // pin-independent correctness failures

	waypoints      int
	journalRecords int
	journalBytes   int64
	coordinate     time.Duration
	fabric         fabric.Status
}

func (pc planCall) campaign(e *env) *inject.Campaign {
	c := &inject.Campaign{
		App: pc.app, Mode: pc.mode, N: pc.n, Seed: e.seed,
		Workers: injectWorkers, Engine: pc.engine, ShardSpec: pc.shard, Obs: e.hub,
	}
	if e.svc != nil {
		c.Observer = e.svc
	}
	return c
}

func campaignKey(c *inject.Campaign) string {
	return resilience.Key{
		App: c.App.Name, Mode: c.Mode.String(), N: c.N, Seed: c.Seed, Model: c.Model.String(),
	}.String()
}

func campaignLabel(c *inject.Campaign) string { return c.App.Name + "/" + c.Mode.String() }

// plan is the driver's PlanContext call: its duration is the pass's
// set-up time.
func (e *env) plan(c *inject.Campaign, r *passResult) (*inject.PlannedCampaign, error) {
	sp := e.tr.start("driver.plan", campaignLabel(c))
	t := time.Now()
	p, err := c.PlanContext(context.Background())
	r.setup += time.Since(t)
	sp.end()
	r.plans++
	if err == nil && c.Engine == inject.EngineFork {
		r.waypoints += int(e.hub.Gauge("letgo_engine_waypoints").Value())
	}
	return p, err
}

func (e *env) execute(c *inject.Campaign, p *inject.PlannedCampaign, r *passResult) (*inject.Result, error) {
	unit, err := p.Shard(c.ShardSpec)
	if err != nil {
		return nil, err
	}
	sp := e.tr.start("driver.execute", campaignLabel(c))
	res, err := c.ExecuteContext(context.Background(), p, unit)
	sp.end()
	if err != nil {
		return nil, err
	}
	if res.Completed != res.Planned {
		r.violations = append(r.violations, fmt.Sprintf("%s shard %q: completed %d of %d",
			campaignKey(c), res.Shard, res.Completed, res.Planned))
	}
	return res, nil
}

// account folds one campaign's final result into the pass: its table is
// rendered exactly as letgo-inject would and hashed.
func (r *passResult) account(c *inject.Campaign, res *inject.Result) error {
	var buf bytes.Buffer
	if err := report.Campaigns(&buf, report.Text, []report.CampaignRow{report.Row(res)}); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	key := campaignKey(c)
	r.digests[key] = hex.EncodeToString(sum[:])
	r.sizes[key] = c.N
	r.planned += c.N
	r.classified += res.Completed
	r.quarantined += res.Counts.By[outcome.CHang] + res.Counts.By[outcome.HarnessFault]
	return nil
}

// runWhole plans and executes every call as a whole campaign in this
// process: the letgo-inject single-process path.
func runWhole(e *env, r *passResult, calls []planCall) error {
	for _, pc := range calls {
		c := pc.campaign(e)
		p, err := e.plan(c, r)
		if err != nil {
			return err
		}
		res, err := e.execute(c, p, r)
		if err != nil {
			return err
		}
		if err := r.account(c, res); err != nil {
			return err
		}
	}
	return nil
}

func runTable3(e *env, r *passResult) error { return runWhole(e, r, table3Plans(e.size)) }
func runPrefix(e *env, r *passResult) error { return runWhole(e, r, prefixPlans(e.size)) }

// journalStats adds a finished journal's record count and file size.
func (r *passResult) journalStats(j *resilience.Journal) error {
	fi, err := os.Stat(j.Path())
	if err != nil {
		return err
	}
	r.journalRecords += j.Len()
	r.journalBytes += fi.Size()
	return nil
}

// runShardMerge is three `-shard i/3 -journal s<i>.jsonl` invocations over
// the 12 campaigns followed by one `-merge 's*.jsonl'` invocation.
func runShardMerge(e *env, r *passResult) error {
	calls := comparePlans(e.size)
	var paths []string
	for i := 1; i <= shardCount; i++ {
		path := filepath.Join(e.tmp, fmt.Sprintf("s%d.jsonl", i))
		paths = append(paths, path)
		sp := e.tr.start("driver.journal", "")
		j, err := resilience.Create(path)
		sp.end()
		if err != nil {
			return err
		}
		for _, pc := range calls {
			pc.shard = inject.ShardSpec{Index: i, Count: shardCount}
			c := pc.campaign(e)
			c.Journal = j
			p, err := e.plan(c, r)
			if err != nil {
				return err
			}
			if _, err := e.execute(c, p, r); err != nil {
				return err
			}
		}
		if err := r.journalStats(j); err != nil {
			return err
		}
	}
	sp := e.tr.start("driver.journal", "")
	merged, collisions, err := resilience.MergeFiles(paths)
	sp.end()
	if err != nil {
		return err
	}
	for _, col := range collisions {
		r.violations = append(r.violations, "merge collision: "+col.String())
	}
	for _, pc := range calls {
		c := pc.campaign(e)
		sp := e.tr.start("driver.merge", campaignLabel(c))
		res, err := c.Merge(merged)
		sp.end()
		if err != nil {
			return err
		}
		if err := r.account(c, res); err != nil {
			return err
		}
	}
	return nil
}

// runFleet is `letgo-inject -coordinate -compare -journal` with two
// `-worker` peers, in one process over httptest loopback.
func runFleet(e *env, r *passResult) error {
	sp := e.tr.start("driver.journal", "")
	j, err := resilience.Create(filepath.Join(e.tmp, "fleet.jsonl"))
	sp.end()
	if err != nil {
		return err
	}
	coord := fabric.NewCoordinator(j, fabric.Options{UnitSize: fleetUnitSize, Hub: e.hub})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerErr := make(chan error, injectWorkers)
	for w := 1; w <= injectWorkers; w++ {
		name := fmt.Sprintf("w%d", w)
		wk := &fabric.Worker{
			Base: srv.URL, Name: name, Workers: 1,
			Hub: e.tr.newHub(name), PollInterval: e.size.poll,
		}
		go func() {
			err := wk.Run(ctx)
			if err != nil {
				cancel() // a dead fleet must not leave Coordinate waiting
			}
			workerErr <- err
		}()
	}
	drain := func() error {
		var first error
		for w := 0; w < injectWorkers; w++ {
			if err := <-workerErr; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	fail := func(err error) error {
		cancel()
		if werr := drain(); werr != nil && !errors.Is(werr, context.Canceled) {
			return fmt.Errorf("%w (worker: %v)", err, werr)
		}
		return err
	}

	for _, pc := range comparePlans(e.size) {
		c := pc.campaign(e)
		p, err := e.plan(c, r)
		if err != nil {
			return fail(err)
		}
		sp := e.tr.start("driver.coordinate", campaignLabel(c))
		t := time.Now()
		err = coord.Coordinate(ctx, p.Manifest())
		r.coordinate += time.Since(t)
		sp.end()
		if err != nil {
			return fail(err)
		}
		sp = e.tr.start("driver.merge", campaignLabel(c))
		res, err := c.Merge(j)
		sp.end()
		if err != nil {
			return fail(err)
		}
		if err := r.account(c, res); err != nil {
			return fail(err)
		}
	}
	coord.Finish()
	if err := drain(); err != nil {
		return err
	}
	r.fabric = coord.Status()
	return r.journalStats(j)
}

// runPass runs one pass of w in a fresh journal directory under tmpRoot.
func runPass(w workload, seed uint64, size sizing, tmpRoot string, tr *tracer) (*passResult, *serviceObserver, error) {
	tmp, err := os.MkdirTemp(tmpRoot, w.Name+"-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: seed, size: size, tmp: tmp, tr: tr, hub: tr.newHub("driver")}
	if tr != nil {
		e.svc = newServiceObserver()
	}
	r := &passResult{digests: map[string]string{}, sizes: map[string]int{}}
	root := tr.start("driver.pass", "")
	t := time.Now()
	err = w.run(e, r)
	r.wall = time.Since(t)
	root.end()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	// setup_s times w.plans; it must be the set-up the pass really pays.
	if want := len(w.plans(size)); r.plans != want {
		return nil, nil, fmt.Errorf("%s: the pass planned %d times, its set-up list has %d", w.Name, r.plans, want)
	}
	return r, e.svc, nil
}

// setupRep times one repetition of w's set-up: every PlanContext call of
// a pass, on fresh copies of the apps so that each repetition pays
// App.Compile's once-per-process compile exactly as a new process would.
func setupRep(w workload, seed uint64, size sizing) (time.Duration, error) {
	fresh := map[string]*apps.App{}
	var total time.Duration
	for _, pc := range w.plans(size) {
		a := fresh[pc.app.Name]
		if a == nil {
			src := pc.app
			a = &apps.App{
				Name: src.Name, Domain: src.Domain, Source: src.Source, Asm: src.Asm,
				Iterative: src.Iterative, Accept: src.Accept, Output: src.Output,
				Tolerance: src.Tolerance, CheckGlobals: src.CheckGlobals,
			}
			fresh[src.Name] = a
		}
		pc.app = a
		c := pc.campaign(&env{seed: seed})
		t := time.Now()
		if _, err := c.PlanContext(context.Background()); err != nil {
			return 0, err
		}
		total += time.Since(t)
	}
	return total, nil
}

// serviceObserver records, per injection worker, the gap between
// consecutive Executed callbacks: the closed loop's service time. Each
// worker goroutine touches only its own slot.
type serviceObserver struct {
	last [injectWorkers]time.Time
	gaps [injectWorkers][]float64 // microseconds
}

func newServiceObserver() *serviceObserver { return &serviceObserver{} }

func (o *serviceObserver) Phase(phase string) {
	if phase == inject.PhaseInject {
		o.last = [injectWorkers]time.Time{}
	}
}
func (o *serviceObserver) Planned(int, inject.Plan) {}
func (o *serviceObserver) Executed(e inject.Execution) {
	if e.Worker < 0 || e.Worker >= injectWorkers {
		return
	}
	now := time.Now()
	if last := o.last[e.Worker]; !last.IsZero() {
		o.gaps[e.Worker] = append(o.gaps[e.Worker], float64(now.Sub(last))/1e3)
	}
	o.last[e.Worker] = now
}
func (o *serviceObserver) Done(*inject.Result)  {}
func (o *serviceObserver) Failed(string, error) {}

func (o *serviceObserver) all() []float64 {
	var out []float64
	for _, g := range o.gaps {
		out = append(out, g...)
	}
	return out
}
