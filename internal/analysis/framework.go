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
// always precise. Soundness also rests on every fixpoint reaching its
// fixed point, so no pass iterates on its own: each hands solve its
// transfer and join functions (widening included), and solve revisits
// every block whose input changed.

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

// solve iterates a block dataflow to its fixed point. It keeps a LIFO
// worklist, seeded with seeds, that holds each block at most once. visit
// runs one block's transfer function and returns the blocks whose input
// changed (successors for a forward pass, predecessors for a backward
// one); solve queues those that are not already queued.
func (a *Analysis) solve(seeds []int, visit func(bi int) []int) {
	queued := make([]bool, len(a.Blocks))
	work := make([]int, 0, len(seeds))
	push := func(bi int) {
		if !queued[bi] {
			queued[bi] = true
			work = append(work, bi)
		}
	}
	for _, bi := range seeds {
		push(bi)
	}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		queued[bi] = false
		for _, next := range visit(bi) {
			push(next)
		}
	}
}

// entries returns f's entry blocks: its first block, plus the program
// entry's block when hand-written code enters f mid-function.
func (a *Analysis) entries(f *Func) []int {
	if len(f.Blocks) == 0 {
		return nil
	}
	out := []int{f.Blocks[0]}
	if ei, ok := a.index(a.Prog.Entry); ok && a.funcOf[ei] == f.Index && a.blockOf[ei] != f.Blocks[0] {
		out = append(out, a.blockOf[ei])
	}
	return out
}
