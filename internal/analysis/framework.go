package analysis

import (
	"sync"
	"time"
)

// Every derived fact about a program comes from one of five passes that
// run in a fixed chain, each at most once per Analysis no matter how many
// consumers (letgo-vet, Heuristic II, CheckpointSet) read its facts:
// Analyze runs the base tier every consumer needs (cfg, stackdepth,
// liveness); the heavier regions and deps passes run on first demand.
//
// Passes never fail. Malformed programs degrade to conservative facts
// ("unknown depth", "may touch any region") that Vet separately reports,
// so a consumer can always trust that a fact it reads is sound, just not
// always precise.

// PassStat names one pass: what it computes and, in PassStats, what it
// cost on this Analysis (the letgo_analysis_* observability surface).
type PassStat struct {
	Name    string
	Doc     string
	Seconds float64
}

// The five passes, in the order they run.
const (
	passCFG = iota
	passStackDepth
	passLiveness
	passRegions
	passDeps
)

var passes = [...]PassStat{
	passCFG:        {Name: "cfg", Doc: "functions, basic blocks, intra-function edges, reachability"},
	passStackDepth: {Name: "stackdepth", Doc: "per-PC sp/bp depth intervals (Heuristic II frame bounds)"},
	passLiveness:   {Name: "liveness", Doc: "per-PC live register sets over both files"},
	passRegions:    {Name: "regions", Doc: "memory regions and per-PC read/write region summaries"},
	passDeps:       {Name: "deps", Doc: "interprocedural region dependency graph"},
}

// Passes lists every pass in the order it runs (letgo-vet -passes).
func Passes() []PassStat { return append([]PassStat(nil), passes[:]...) }

// passState is the run-once bookkeeping embedded in Analysis.
type passState struct {
	regionsOnce, depsOnce sync.Once

	mu    sync.Mutex // guards stats: a lazy pass may finish under a reader
	stats []PassStat
}

// timed runs one pass and records its wall-clock cost.
func (a *Analysis) timed(pass int, run func()) {
	start := time.Now()
	run()
	st := passes[pass]
	st.Seconds = time.Since(start).Seconds()
	a.mu.Lock()
	a.stats = append(a.stats, st)
	a.mu.Unlock()
}

// PassStats returns the passes that have run on this Analysis, in
// execution order, with wall-clock durations.
func (a *Analysis) PassStats() []PassStat {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]PassStat(nil), a.stats...)
}
