package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/core"
	"github.com/letgo-hpc/letgo/internal/debug"
	"github.com/letgo-hpc/letgo/internal/engine"
	"github.com/letgo-hpc/letgo/internal/fabric"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/lang"
	"github.com/letgo-hpc/letgo/internal/mem"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/resilience"
	"github.com/letgo-hpc/letgo/internal/stats"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// Probes are micro-loops over one layer's exported functions, measured
// from outside: each runs probeRounds rounds of at least `round` and
// reports the median round. They are workload-independent.

const probeRounds = 5

// sink keeps the compiler from removing a measured call.
var sink uint64

// nsPerOp times batch(n), which must perform n operations, and returns
// the median nanoseconds per operation over probeRounds rounds.
func nsPerOp(round time.Duration, batch func(n int)) float64 {
	n := 1
	for {
		t := time.Now()
		batch(n)
		if time.Since(t) >= round/20 || n >= 1<<26 {
			break
		}
		n *= 2
	}
	vals := make([]float64, 0, probeRounds)
	for r := 0; r < probeRounds; r++ {
		ops := 0
		t := time.Now()
		for time.Since(t) < round {
			batch(n)
			ops += n
		}
		vals = append(vals, float64(time.Since(t))/float64(ops))
	}
	return median(vals)
}

// each adapts a single operation to nsPerOp's batch form.
func each(op func()) func(int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			op()
		}
	}
}

type probeSet struct {
	round time.Duration
	tmp   string
	out   map[string]float64
	err   error
}

func (p *probeSet) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// runProbes measures every probe metric. tmpRoot holds the on-disk
// journals of the resilience probes.
func runProbes(round time.Duration, tmpRoot string) (map[string]float64, error) {
	tmp, err := os.MkdirTemp(tmpRoot, "probes-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	p := &probeSet{round: round, tmp: tmp, out: map[string]float64{}}
	for _, f := range []func(){
		p.vmProbes, p.memProbes, p.engineProbes, p.coreProbes, p.injectProbes,
		p.frontEndProbes, p.resilienceProbes, p.fabricProbes, p.obsProbes,
	} {
		f()
		if p.err != nil {
			return nil, p.err
		}
	}
	return p.out, nil
}

func compiledApp(name string) (*apps.App, *isa.Program, error) {
	a, ok := apps.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown app %s", name)
	}
	prog, err := a.Compile()
	return a, prog, err
}

// probeBudget bounds the fault-free executions inside probes.
const probeBudget = 1 << 31

func (p *probeSet) vmProbes() {
	_, prog, err := compiledApp("CLAMR")
	if err != nil {
		p.fail(err)
		return
	}
	// CLAMR to completion, machine construction included: the definition
	// BENCH_vm.json used.
	var retired uint64
	drive := nsPerOp(p.round, each(func() {
		m, err := vm.New(prog, vm.Config{})
		if err != nil {
			p.fail(err)
			return
		}
		if stop := vm.Drive(m, probeBudget, vm.Hooks{}); stop.Reason != vm.StopHalted {
			p.fail(fmt.Errorf("vm probe: drive stopped with %v", stop.Reason))
		}
		retired = m.Retired
	}))
	p.out["vm.drive_minstr_per_s"] = float64(retired) / drive * 1e3
	step := nsPerOp(p.round, each(func() {
		m, err := vm.New(prog, vm.Config{})
		if err != nil {
			p.fail(err)
			return
		}
		for !m.Halted && m.Retired < probeBudget {
			if err := m.Step(); err != nil {
				p.fail(err)
				return
			}
		}
		retired = m.Retired
	}))
	p.out["vm.step_minstr_per_s"] = float64(retired) / step * 1e3
	p.out["vm.new_us"] = nsPerOp(p.round, each(func() {
		m, err := vm.New(prog, vm.Config{})
		p.fail(err)
		sink += m.PC
	})) / 1e3
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		p.fail(err)
		return
	}
	p.fail(m.Run(probeBudget))
	p.out["vm.fork_ns"] = nsPerOp(p.round, each(func() { sink += m.Fork().PC }))
}

func (p *probeSet) memProbes() {
	const pages = 1024
	base := mem.New()
	p.fail(base.Map("probe", 0x10000, pages*mem.PageSize))
	for i := uint64(0); i < pages; i++ {
		p.fail(base.Write8(0x10000+i*mem.PageSize, i+1))
	}
	if p.err != nil {
		return
	}
	const a, b = 0x10000, 0x10000 + mem.PageSize
	p.out["mem.read8_hit_ns"] = nsPerOp(p.round, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := base.Read8(a + uint64(i&511)*8)
			sink += v
		}
	})
	// Alternating pages defeat the one-entry read cache.
	p.out["mem.read8_miss_ns"] = nsPerOp(p.round, func(n int) {
		for i := 0; i < n; i += 2 {
			v, _ := base.Read8(a)
			w, _ := base.Read8(b)
			sink += v + w
		}
	})
	p.out["mem.write8_hit_ns"] = nsPerOp(p.round, func(n int) {
		for i := 0; i < n; i++ {
			base.Write8(a+uint64(i&511)*8, uint64(i)) //nolint:errcheck // mapped above
		}
	})
	sealed := base.Fork() // base's pages are now a frozen layer
	p.out["mem.fork_ns"] = nsPerOp(p.round, each(func() { sink += sealed.Fork().CopiedPages() }))
	// One fork, then the first write to each of its `pages` frozen pages:
	// one COW fault per write, the fork amortized over them.
	p.out["mem.cow_first_write_ns"] = nsPerOp(p.round, each(func() {
		c := sealed.Fork()
		for i := uint64(0); i < pages; i++ {
			c.Write8(0x10000+i*mem.PageSize, i) //nolint:errcheck // mapped above
		}
		sink += c.CopiedPages()
	})) / pages
}

func (p *probeSet) engineProbes() {
	app, prog, err := compiledApp("CLAMR")
	if err != nil {
		p.fail(err)
		return
	}
	p.out["engine.record_ms"] = nsPerOp(p.round, each(func() {
		g, err := engine.Record(prog, vm.Config{}, 0, probeBudget)
		p.fail(err)
		if g != nil {
			sink += g.Retired
		}
	})) / 1e6
	gold, err := engine.Record(prog, vm.Config{}, 0, probeBudget)
	if err != nil {
		p.fail(err)
		return
	}
	c := &inject.Campaign{App: app, Mode: inject.LetGoE, N: 1000, Seed: 2017}
	plan, err := c.PlanContext(context.Background())
	if err != nil {
		p.fail(err)
		return
	}
	sites := make([]pin.Site, len(plan.Plans))
	for i, pl := range plan.Plans {
		sites[i] = pl.Site
	}
	var whens []uint64
	p.out["engine.resolve_whens_ms"] = nsPerOp(p.round, each(func() {
		whens, err = gold.ResolveWhens(sites)
		p.fail(err)
	})) / 1e6
	if p.err != nil {
		return
	}
	i := 0
	p.out["engine.forkat_us"] = nsPerOp(p.round, each(func() {
		when := whens[i%len(whens)]
		i++
		m, _ := gold.ForkAt(when)
		if stop := debug.New(m).RunToDynamic(when); stop != nil {
			p.fail(fmt.Errorf("engine probe: replay stopped: %v", stop.Reason))
		}
		sink += m.PC
	})) / 1e3
}

// repairSrc traps on a wild load every loop pass (BenchmarkRepairCost).
const repairSrc = `
	var sink float;
	var junk [8] float;
	func main() {
		var i int;
		for (i = 0; i < 1000; i = i + 1) {
			sink = sink + junk[i * 65536 * 65536];
		}
	}
`

func (p *probeSet) coreProbes() {
	prog, err := lang.Compile(repairSrc)
	if err != nil {
		p.fail(err)
		return
	}
	an := pin.Analyze(prog)
	var spent time.Duration
	repairs := 0
	nsPerOp(p.round, each(func() {
		m, err := vm.New(prog, vm.Config{})
		if err != nil {
			p.fail(err)
			return
		}
		res := core.Attach(m, an, core.Options{Mode: core.ModeEnhanced, MaxRepairs: 1 << 20}).Run(1 << 24)
		for _, ev := range res.Events {
			spent += ev.Duration
		}
		repairs += res.Repairs
	}))
	if repairs == 0 {
		p.fail(fmt.Errorf("core probe: no repairs happened"))
		return
	}
	p.out["core.repair_ns"] = float64(spent) / float64(repairs)
}

func (p *probeSet) injectProbes() {
	clamr, _, err := compiledApp("CLAMR")
	if err != nil {
		p.fail(err)
		return
	}
	c := &inject.Campaign{App: clamr, Mode: inject.LetGoE, N: 1000, Seed: 2017}
	var plan *inject.PlannedCampaign
	p.out["inject.plan_context_ms"] = nsPerOp(p.round, each(func() {
		plan, err = c.PlanContext(context.Background())
		p.fail(err)
	})) / 1e6
	if p.err != nil {
		return
	}
	p.out["inject.manifest_digest_ms"] = nsPerOp(p.round, each(func() {
		d, err := plan.Manifest().Digest()
		p.fail(err)
		sink += uint64(len(d))
	})) / 1e6

	// One whole injection on SNAP under LetGo-E: run to the site, flip,
	// run out (BenchmarkInjection).
	_, prog, err := compiledApp("SNAP")
	if err != nil {
		p.fail(err)
		return
	}
	an := pin.Analyze(prog)
	prof, err := an.ProfileRun(vm.Config{}, probeBudget)
	if err != nil {
		p.fail(err)
		return
	}
	rng := stats.NewRNG(1)
	p.out["inject.execute_one_us"] = nsPerOp(p.round, each(func() {
		pl, err := inject.SamplePlan(prog, prof, rng)
		if err != nil {
			p.fail(err)
			return
		}
		ro, err := inject.Execute(prog, an, pl, inject.LetGoE, 4*prof.Total)
		p.fail(err)
		sink += ro.Retired
	})) / 1e3
}

func (p *probeSet) frontEndProbes() {
	clamr, prog, err := compiledApp("CLAMR")
	if err != nil {
		p.fail(err)
		return
	}
	p.out["analysis.analyze_ms"] = nsPerOp(p.round, each(func() {
		ss, err := pin.Analyze(prog).CheckpointSet(clamr.AcceptanceGlobals())
		p.fail(err)
		if ss != nil {
			sink += ss.DerivedBytes
		}
	})) / 1e6
	pennant, _, err := compiledApp("PENNANT")
	if err != nil {
		p.fail(err)
		return
	}
	p.out["lang.compile_ms"] = nsPerOp(p.round, each(func() {
		prog, err := lang.Compile(pennant.Source)
		p.fail(err)
		if prog != nil {
			sink += uint64(len(prog.Instrs))
		}
	})) / 1e6
}

var probeKey = resilience.Key{App: "PROBE", Mode: "LetGo-E", N: 1 << 20, Seed: 1, Model: "single-bit"}

func probeRecord(i int) resilience.Record {
	return resilience.Record{
		Key: probeKey, Index: i, Class: "Benign", DestLive: true,
		Retired: 1_000_000 + uint64(i), Latency: uint64(i % 7), HasLatency: i%3 == 0,
	}
}

// journalOf builds an on-disk journal holding records [from, from+n).
func (p *probeSet) journalOf(name string, from, n int) *resilience.Journal {
	j, err := resilience.Create(filepath.Join(p.tmp, name))
	if err != nil {
		p.fail(err)
		return nil
	}
	j.FlushEvery = n + 1 // build in memory, persist once
	for i := from; i < from+n; i++ {
		p.fail(j.Append(probeRecord(i)))
	}
	p.fail(j.Flush())
	j.FlushEvery = 0
	return j
}

func (p *probeSet) resilienceProbes() {
	j := resilience.New()
	i := 0
	p.out["resilience.append_us"] = nsPerOp(p.round, each(func() {
		if i == 10_000 {
			j, i = resilience.New(), 0
		}
		p.fail(j.Append(probeRecord(i)))
		i++
	})) / 1e3

	// One 64-record chunk landing in a journal that already holds 1k / 10k
	// records. The chunk overwrites existing indices so the journal does
	// not grow between operations; the explicit Flush is the whole-file
	// rewrite a full chunk triggers.
	for _, at := range []struct {
		metric string
		n      int
	}{{"resilience.flush_ms_at_1k", 1000}, {"resilience.flush_ms_at_10k", 10_000}} {
		j := p.journalOf(fmt.Sprintf("flush-%d.jsonl", at.n), 0, at.n)
		if p.err != nil {
			return
		}
		p.out[at.metric] = nsPerOp(p.round, each(func() {
			for k := 0; k < resilience.DefaultFlushEvery; k++ {
				p.fail(j.Append(probeRecord(k)))
			}
			p.fail(j.Flush())
		})) / 1e6
	}

	whole := p.journalOf("open-10k.jsonl", 0, 10_000)
	if p.err != nil {
		return
	}
	p.out["resilience.open_ms_10k"] = nsPerOp(p.round, each(func() {
		j, err := resilience.Open(whole.Path())
		p.fail(err)
		sink += uint64(j.Len())
	})) / 1e6

	var parts []string
	for s := 0; s < 3; s++ {
		n := 10_000 / 3
		if s == 0 {
			n += 10_000 % 3
		}
		part := p.journalOf(fmt.Sprintf("part-%d.jsonl", s), s*4000, n)
		if p.err != nil {
			return
		}
		parts = append(parts, part.Path())
	}
	p.out["resilience.merge3_ms_10k"] = nsPerOp(p.round, each(func() {
		j, cols, err := resilience.MergeFiles(parts)
		p.fail(err)
		sink += uint64(j.Len() + len(cols))
	})) / 1e6
}

// fabricProbes times the three protocol round trips a unit costs, over
// httptest loopback against a coordinator with an in-memory journal (so
// the round trip is protocol and HTTP, not disk).
func (p *probeSet) fabricProbes() {
	const units, unitSize = 30_000, 10
	key := probeKey
	key.N = units * unitSize
	coord := fabric.NewCoordinator(resilience.New(), fabric.Options{UnitSize: unitSize})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- coord.Coordinate(ctx, inject.PlanManifest{Key: key, Plans: make([]inject.PlanRecord, key.N)})
	}()
	defer func() {
		cancel()
		<-done
	}()

	post := func(path string, in, out any) {
		body, err := json.Marshal(in)
		if err != nil {
			p.fail(err)
			return
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			p.fail(err)
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			p.fail(err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			p.fail(fmt.Errorf("fabric probe: %s answered %s: %s", path, resp.Status, data))
			return
		}
		p.fail(json.Unmarshal(data, out))
	}

	// Wait for the campaign to be published.
	var gen int
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(srv.URL + "/fabric/campaign?worker=probe")
		if err != nil {
			p.fail(err)
			return
		}
		var cr fabric.CampaignResponse
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil {
			p.fail(err)
			return
		}
		if cr.Spec != nil {
			gen = cr.Spec.Generation
			break
		}
		if time.Now().After(deadline) {
			p.fail(fmt.Errorf("fabric probe: campaign never published"))
			return
		}
		time.Sleep(time.Millisecond)
	}

	var lease, beat, complete []float64
	for r := 0; r < probeRounds && p.err == nil; r++ {
		var tl, tb, tc time.Duration
		cycles := 0
		for start := time.Now(); time.Since(start) < p.round && p.err == nil; cycles++ {
			var lr fabric.LeaseResponse
			t := time.Now()
			post("/fabric/lease", fabric.LeaseRequest{Worker: "probe", Generation: gen}, &lr)
			tl += time.Since(t)
			if lr.Unit == nil {
				p.fail(fmt.Errorf("fabric probe: the %d-unit queue ran dry", units))
				return
			}
			var hr fabric.HeartbeatResponse
			t = time.Now()
			post("/fabric/heartbeat", fabric.HeartbeatRequest{Worker: "probe", Generation: gen, Unit: lr.Unit.ID}, &hr)
			tb += time.Since(t)
			recs := make([]resilience.Record, len(lr.Unit.Indices))
			for k, idx := range lr.Unit.Indices {
				recs[k] = probeRecord(idx)
				recs[k].Key = key
			}
			var cr fabric.CompleteResponse
			t = time.Now()
			post("/fabric/complete", fabric.CompleteRequest{Worker: "probe", Generation: gen, Unit: lr.Unit.ID, Records: recs}, &cr)
			tc += time.Since(t)
			if p.err == nil && (!hr.OK || !cr.OK) {
				p.fail(fmt.Errorf("fabric probe: heartbeat ok=%v complete ok=%v", hr.OK, cr.OK))
			}
		}
		if cycles > 0 {
			lease = append(lease, float64(tl)/float64(cycles)/1e3)
			beat = append(beat, float64(tb)/float64(cycles)/1e3)
			complete = append(complete, float64(tc)/float64(cycles)/1e3)
		}
	}
	p.out["fabric.lease_rtt_us"] = median(lease)
	p.out["fabric.heartbeat_rtt_us"] = median(beat)
	p.out["fabric.complete_rtt_us"] = median(complete)
}

func (p *probeSet) obsProbes() {
	hub := &obs.Hub{Reg: obs.NewRegistry(), Em: obs.NewEmitter(io.Discard)}
	p.out["obs.span_ns"] = nsPerOp(p.round, each(func() { hub.StartSpan("probe").End() }))
}
