// Package engine is the fork-replay execution substrate for injection
// campaigns: it runs the golden execution of a program ONCE, taking
// copy-on-write waypoint snapshots every K retired instructions, and then
// serves cheap machine forks positioned anywhere in the execution by
// forking the nearest waypoint and replaying only the delta.
//
// This turns an N-injection campaign from O(N x prefix) re-execution work
// (every run re-runs the program from PC 0 up to its injection point)
// into O(golden + N x K/2): the golden prefix is executed once and shared
// by every worker through the COW page layers of internal/mem.
//
// Determinism contract: the simulated machine is fully deterministic, a
// fork is bit-identical to its parent, and a replayed prefix is fault-
// free, so a machine positioned at dynamic instruction d by ForkAt +
// replay is architecturally indistinguishable from one that executed the
// whole prefix. Campaign outcomes are therefore byte-identical between
// the fork and rerun engines (enforced by inject's equivalence tests).
package engine

import (
	"fmt"
	"math"
	"sort"

	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// DefaultWaypointEvery is the default waypoint spacing K in retired
// instructions. See docs/ENGINE.md for how K trades replay work (expected
// K/2 instructions per positioning) against waypoint memory.
const DefaultWaypointEvery = 4096

// maxWaypoints bounds the waypoint count: when a recording would exceed
// it, the spacing doubles and every other waypoint is dropped (the
// classic adaptive-checkpointing trick), so unexpectedly long golden runs
// cost memory logarithmically, not linearly.
const maxWaypoints = 128

// waypoint is one frozen machine at a known retirement count. Its machine
// is never stepped or written after capture, which makes concurrent Fork
// calls on it safe.
type waypoint struct {
	retired uint64
	m       *vm.Machine
}

// Golden is the recorded golden execution of one program: the final
// machine, the per-static-instruction execution profile, and the waypoint
// ladder. It is immutable after Record and safe to share across campaign
// workers.
type Golden struct {
	Prog *isa.Program
	// Retired is the golden dynamic instruction count.
	Retired uint64
	// Every is the effective waypoint spacing after adaptive thinning.
	Every uint64

	counts    []uint64
	waypoints []waypoint
	// final is the halted golden machine, sealed like a waypoint: reading
	// a Memory moves its access caches, so readers take ForkFinal.
	final       *vm.Machine
	pagesCopied uint64 // COW faults of the recording machine
}

// Record executes prog to completion on a fresh machine, counting every
// retired instruction (the profiling phase) and forking a waypoint every
// `every` retired instructions (0 selects DefaultWaypointEvery). It fails
// if the fault-free program traps or does not halt within budget.
func Record(prog *isa.Program, cfg vm.Config, every, budget uint64) (*Golden, error) {
	return RecordObs(prog, cfg, every, budget, nil)
}

// RecordObs is Record with optional observability: the recording is
// wrapped in a golden_record span and the resulting waypoint count and
// golden length land in hub's registry. A nil hub records nothing.
func RecordObs(prog *isa.Program, cfg vm.Config, every, budget uint64, hub *obs.Hub) (*Golden, error) {
	defer hub.StartSpan("golden_record").End()
	if every == 0 {
		every = DefaultWaypointEvery
	}
	m, err := vm.New(prog, cfg)
	if err != nil {
		return nil, err
	}
	g := &Golden{
		Prog:   prog,
		Every:  every,
		counts: make([]uint64, len(prog.Instrs)),
	}
	g.waypoints = append(g.waypoints, waypoint{retired: 0, m: m.Fork()})
	// Recording is a Retired-hook configuration of the shared vm driver:
	// the hook observes fully committed machine state after every
	// retirement (so waypoint forks are sound), counts the instruction
	// for the profile, and drops a waypoint on the ladder spacing.
	stop := vm.Drive(m, budget, vm.Hooks{
		Retired: func(m *vm.Machine, idx int) bool {
			g.counts[idx]++
			if !m.Halted && m.Retired%g.Every == 0 {
				g.waypoints = append(g.waypoints, waypoint{retired: m.Retired, m: m.Fork()})
				if len(g.waypoints) > maxWaypoints {
					g.thin()
				}
			}
			return false
		},
	})
	if err := goldenStopErr(stop, budget); err != nil {
		return nil, err
	}
	g.final = m.Fork()
	g.pagesCopied = m.Mem.CopiedPages()
	g.Retired = m.Retired
	if hub != nil {
		hub.Gauge("letgo_engine_waypoints").Set(float64(len(g.waypoints)))
		hub.Gauge("letgo_engine_golden_retired_instructions").Set(float64(g.Retired))
	}
	return g, nil
}

// goldenStopErr explains why a recording that did not halt stopped.
func goldenStopErr(stop vm.Stop, budget uint64) error {
	switch stop.Reason {
	case vm.StopHalted:
		return nil
	case vm.StopBudget:
		return fmt.Errorf("engine: golden run exceeded budget of %d instructions", budget)
	case vm.StopTrap:
		return fmt.Errorf("engine: fault-free golden run trapped: %w", stop.Trap)
	case vm.StopError:
		return fmt.Errorf("engine: fault-free golden run stopped on a machine error: %w", stop.Err)
	}
	return fmt.Errorf("engine: fault-free golden run stopped early (%v)", stop.Reason)
}

// thin doubles the waypoint spacing and drops the waypoints that no
// longer fall on it (the initial waypoint at 0 is always kept).
func (g *Golden) thin() {
	g.Every *= 2
	kept := g.waypoints[:1]
	for _, w := range g.waypoints[1:] {
		if w.retired%g.Every == 0 {
			kept = append(kept, w)
		}
	}
	g.waypoints = kept
}

// Profile returns the pin.Profile observed during recording — identical
// to what pin's ProfileRun computes, without a second execution.
func (g *Golden) Profile() *pin.Profile {
	return &pin.Profile{Total: g.Retired, Counts: append([]uint64(nil), g.counts...)}
}

// Waypoints returns the number of recorded waypoints.
func (g *Golden) Waypoints() int { return len(g.waypoints) }

// nearest returns the index of the last waypoint at or before retired.
func (g *Golden) nearest(retired uint64) int {
	return sort.Search(len(g.waypoints), func(i int) bool {
		return g.waypoints[i].retired > retired
	}) - 1
}

// NearestRetired returns the retirement count of the closest waypoint at
// or before retired — what a scheduler compares against an already-
// positioned replay machine before deciding to fork.
func (g *Golden) NearestRetired(retired uint64) uint64 {
	return g.waypoints[g.nearest(retired)].retired
}

// ForkAt forks the nearest waypoint at or before retired and returns the
// fresh machine plus the waypoint's retirement count (the caller replays
// the remaining retired-wp delta, e.g. with debug.RunToDynamic). Safe for
// concurrent use from multiple workers.
func (g *Golden) ForkAt(retired uint64) (*vm.Machine, uint64) {
	w := g.waypoints[g.nearest(retired)]
	return w.m.Fork(), w.retired
}

// WaypointAfter returns the retirement count of the (skip+1)-th waypoint
// strictly after retired; ok is false when the ladder ends before it.
func (g *Golden) WaypointAfter(retired uint64, skip int) (at uint64, ok bool) {
	i := g.nearest(retired) + 1 + skip
	if i >= len(g.waypoints) {
		return 0, false
	}
	return g.waypoints[i].retired, true
}

// ConvergedAt reports whether m, stopped at a waypoint's retirement count,
// is in exactly the state the golden run was in there (vm.SameState). The
// machine is deterministic, so such a run retires the golden suffix from
// here on and ends as ForkFinal. False when no waypoint sits at m.Retired.
// Safe for concurrent use: the waypoint is only read.
func (g *Golden) ConvergedAt(m *vm.Machine) bool {
	w := g.waypoints[g.nearest(m.Retired)]
	return w.retired == m.Retired && m.SameState(w.m)
}

// ForkFinal returns a private copy-on-write fork of the halted golden
// machine, for acceptance checks and output reads. Safe for concurrent use.
func (g *Golden) ForkFinal() *vm.Machine { return g.final.Fork() }

// PagesCopied reports the COW page copies charged to the golden recording
// itself (the recording machine faulting pages out of its own waypoints).
func (g *Golden) PagesCopied() uint64 { return g.pagesCopied }

// ResolveWhens maps injection sites — (static address, dynamic instance)
// pairs — to the absolute retired-instruction count at which each site's
// instruction is about to execute, by replaying the golden run once from
// the initial waypoint and counting per-PC occurrences. The returned
// slice is index-aligned with sites.
//
// This replaces per-run breakpoint-instance counting: the temporal
// position of every planned injection is computed in one shared pass.
func (g *Golden) ResolveWhens(sites []pin.Site) ([]uint64, error) {
	whens := make([]uint64, len(sites))
	// An instruction's occurrence count only goes up, so the wanted
	// instances of one static index resolve in ascending order: keep them
	// sorted per index and compare the count against the head alone.
	type want struct {
		instance uint64
		site     int
	}
	wants := make([][]want, len(g.counts)) // by static index, ascending instance
	// Per static index: occurrences so far, and wants[idx][0].instance
	// (0 = none left), side by side so the hot path touches one line.
	count := make([]struct{ occ, next uint64 }, len(g.counts))
	for i, s := range sites {
		// A site outside the code segment or with instance 0 (counts start
		// at 1) is never reached: it stays in remaining to the end.
		idx := (s.Addr - isa.CodeBase) / isa.InstrBytes
		if idx < uint64(len(wants)) && s.Instance > 0 {
			wants[idx] = append(wants[idx], want{s.Instance, i})
		}
	}
	for idx, w := range wants {
		if len(w) > 0 {
			sort.Slice(w, func(a, b int) bool { return w[a].instance < w[b].instance })
			count[idx].next = w[0].instance
		}
	}
	m, _ := g.ForkAt(0)
	remaining := len(sites)
	// Site matching is a Before-hook configuration of the shared driver:
	// each about-to-execute instruction bumps its occurrence counter and,
	// on a match, records the machine's current retirement count. The hook
	// stops the driver once every site is resolved.
	stop := vm.Drive(m, math.MaxUint64, vm.Hooks{
		Before: func(m *vm.Machine) bool {
			idx := (m.PC - isa.CodeBase) / isa.InstrBytes
			c := &count[idx]
			c.occ++
			if c.occ != c.next {
				return false
			}
			w := wants[idx]
			for len(w) > 0 && w[0].instance == c.occ {
				whens[w[0].site] = m.Retired
				remaining--
				w = w[1:]
			}
			wants[idx], c.next = w, 0
			if len(w) > 0 {
				c.next = w[0].instance
			}
			return remaining == 0
		},
	})
	if stop.Reason == vm.StopTrap {
		return nil, fmt.Errorf("engine: resolving injection sites: %w", stop.Trap)
	}
	if remaining > 0 {
		return nil, fmt.Errorf("engine: %d injection sites never reached in golden replay", remaining)
	}
	return whens, nil
}
