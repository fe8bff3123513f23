// Package cluster is the reproduction's "towards large-scale application"
// extension (paper Section 8): a coordinated checkpoint/restart harness
// that runs several replicas ("ranks") of a workload in lockstep on real
// simulated machines, injects register bit-flips as a per-rank Poisson
// process in instruction time, and performs *actual* rollbacks from
// copy-on-write machine forks when a rank dies.
//
// Where internal/checkpoint models the Section-7 system analytically as a
// state machine, this package executes it: checkpoints are vm.Machine
// forks, recoveries re-fork every rank, and LetGo (when enabled) elides
// rank crashes in place. It validates the model end to end and realizes
// the paper's sketch of integrating LetGo with a multi-rank runtime.
package cluster

import (
	"fmt"
	"math"

	"github.com/letgo-hpc/letgo/internal/core"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/stats"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// Config describes one coordinated job.
type Config struct {
	// Prog is the workload every rank executes.
	Prog *isa.Program
	// Ranks is the number of replicas (>= 1).
	Ranks int
	// UseLetGo attaches a LetGo-E runner to every rank; otherwise any
	// crash kills the job back to the last checkpoint.
	UseLetGo bool
	// LetGoOpts overrides the per-rank LetGo options (default Enhanced).
	LetGoOpts *core.Options
	// CheckpointInterval is the coordinated checkpoint period in retired
	// instructions per rank.
	CheckpointInterval uint64
	// CheckpointCost and RecoveryCost are charged in instruction
	// equivalents per checkpoint/recovery (system overhead).
	CheckpointCost uint64
	RecoveryCost   uint64
	// MeanInstrsBetweenFaults is the per-rank Poisson mean, in retired
	// instructions, between register bit-flips. Zero disables faults.
	MeanInstrsBetweenFaults uint64
	// Seed drives fault schedules.
	Seed uint64
	// MaxCost aborts runaway jobs (instruction equivalents); zero means
	// 1000x the checkpoint interval.
	MaxCost uint64
}

func (c *Config) validate() error {
	switch {
	case c.Prog == nil:
		return fmt.Errorf("cluster: nil program")
	case c.Ranks < 1:
		return fmt.Errorf("cluster: need at least one rank")
	case c.CheckpointInterval == 0:
		return fmt.Errorf("cluster: zero checkpoint interval")
	}
	return nil
}

// Result summarizes a job.
type Result struct {
	Completed      bool
	Useful         uint64 // instructions of the final, surviving execution
	Cost           uint64 // total instruction-equivalents spent (per rank)
	Checkpoints    int
	Rollbacks      int
	FaultsInjected int
	CrashesElided  int
	RankMachines   []*vm.Machine // final machine per rank (for output checks)
}

// Efficiency is useful work over total cost, the paper's u/cost.
func (r Result) Efficiency() float64 {
	if r.Cost == 0 {
		return 0
	}
	return float64(r.Useful) / float64(r.Cost)
}

// rank is one replica's execution context.
type rank struct {
	machine   *vm.Machine
	runner    *core.Runner
	rng       *stats.RNG
	nextFault uint64 // absolute retired-instruction count of the next fault
	opts      core.Options
	useLetGo  bool
}

func (cfg *Config) newRank(an *pin.Analysis, rng *stats.RNG) (*rank, error) {
	m, err := vm.New(cfg.Prog, vm.Config{})
	if err != nil {
		return nil, err
	}
	r := &rank{machine: m, rng: rng, useLetGo: cfg.UseLetGo}
	r.opts = core.Options{Mode: core.ModeEnhanced}
	if cfg.LetGoOpts != nil {
		r.opts = *cfg.LetGoOpts
	}
	if cfg.UseLetGo {
		r.runner = core.Attach(m, an, r.opts)
	}
	r.scheduleFault(cfg, 0)
	return r, nil
}

func (r *rank) scheduleFault(cfg *Config, from uint64) {
	if cfg.MeanInstrsBetweenFaults == 0 {
		r.nextFault = ^uint64(0)
		return
	}
	gap := uint64(r.rng.Exp(float64(cfg.MeanInstrsBetweenFaults)))
	if gap == 0 {
		gap = 1
	}
	r.nextFault = from + gap
}

// flipRandomRegister models a datapath fault surfacing in the register
// file: one random bit of one random register.
func (r *rank) flipRandomRegister() {
	which := r.rng.Intn(isa.NumIntRegs + isa.NumFloatRegs)
	bit := uint(r.rng.Intn(64))
	if which < isa.NumIntRegs {
		r.machine.X[which] ^= 1 << bit
	} else {
		f := which - isa.NumIntRegs
		bits := math.Float64bits(r.machine.F[f]) ^ (1 << bit)
		r.machine.F[f] = math.Float64frombits(bits)
	}
}

// rankStatus is the outcome of advancing one rank to a target retirement.
type rankStatus uint8

const (
	rankRunning rankStatus = iota
	rankDone
	rankDead
)

// advance runs the rank until target retired instructions (or
// completion/death), injecting scheduled faults on the way.
func (r *rank) advance(cfg *Config, target uint64, res *Result) rankStatus {
	for {
		st := r.runTo(min(target, r.nextFault))
		switch st {
		case rankDead, rankDone:
			return st
		}
		if r.machine.Retired >= target {
			return rankRunning
		}
		// Fault point reached: flip a register and reschedule.
		r.flipRandomRegister()
		res.FaultsInjected++
		r.scheduleFault(cfg, r.machine.Retired)
	}
}

// runTo advances the underlying machine to the retirement target.
func (r *rank) runTo(target uint64) rankStatus {
	if r.machine.Halted {
		return rankDone
	}
	if r.useLetGo {
		res := r.runner.Run(target)
		switch res.Outcome {
		case core.RunCompleted:
			return rankDone
		case core.RunHang: // budget reached, still alive
			return rankRunning
		default:
			return rankDead
		}
	}
	err := r.machine.Run(target)
	switch {
	case err == nil:
		return rankDone
	case err == vm.ErrBudget:
		return rankRunning
	default:
		return rankDead
	}
}

// Run executes the coordinated job to completion (all ranks halt) or
// until the cost cap is exceeded.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxCost := cfg.MaxCost
	if maxCost == 0 {
		maxCost = 1000 * cfg.CheckpointInterval
	}
	an := pin.Analyze(cfg.Prog)
	root := stats.NewRNG(cfg.Seed)

	res := &Result{}
	ranks := make([]*rank, cfg.Ranks)
	for i := range ranks {
		var err error
		if ranks[i], err = cfg.newRank(an, root.Split()); err != nil {
			return nil, err
		}
	}

	// Coordinated checkpoints: every rank forks at the same retired count,
	// and the fork is never run. The initial state is checkpoint zero.
	snaps := make([]*vm.Machine, cfg.Ranks)
	takeCheckpoint := func() {
		for i, r := range ranks {
			snaps[i] = r.machine.Fork()
		}
	}
	takeCheckpoint()
	var checkpointAt uint64 // retirement count of the last checkpoint

	// segment is the longest stretch any rank has run past the last
	// checkpoint. A rank that halted before an earlier barrier sits below
	// checkpointAt and contributes nothing (the subtraction would wrap).
	segment := func() uint64 {
		var longest uint64
		for _, r := range ranks {
			if ret := r.machine.Retired; ret > checkpointAt && ret-checkpointAt > longest {
				longest = ret - checkpointAt
			}
		}
		return longest
	}

	rollback := func() {
		res.Rollbacks++
		res.Cost += cfg.RecoveryCost
		for i := range ranks {
			// The checkpoint stays frozen so it can be restored again.
			ranks[i].machine = snaps[i].Fork()
			// A fresh execution after rollback gets a fresh LetGo runner
			// (the give-up counter applies per continued execution) and a
			// fresh fault schedule.
			if ranks[i].useLetGo {
				ranks[i].runner = core.Attach(ranks[i].machine, an, ranks[i].opts)
			}
			ranks[i].scheduleFault(&cfg, ranks[i].machine.Retired)
		}
	}

	for {
		if res.Cost > maxCost {
			res.Useful = 0
			return res, nil
		}
		target := checkpointAt + cfg.CheckpointInterval

		// Advance every rank to the barrier (or completion/death).
		anyDead := false
		allDone := true
		var elidedBefore int
		for _, r := range ranks {
			if r.useLetGo {
				elidedBefore += len(r.runner.Events())
			}
		}
		for _, r := range ranks {
			switch r.advance(&cfg, target, res) {
			case rankDead:
				anyDead = true
			case rankRunning:
				allDone = false
			}
		}
		for _, r := range ranks {
			if r.useLetGo {
				res.CrashesElided += len(r.runner.Events())
			}
		}
		res.CrashesElided -= elidedBefore

		if anyDead {
			// Coordinated rollback: the lockstep segment is lost.
			res.Cost += segment()
			rollback()
			continue
		}

		if allDone {
			// The job finished: the last partial segment is useful.
			res.Cost += segment()
			res.Useful = ranks[0].machine.Retired
			res.Completed = true
			for _, r := range ranks {
				res.RankMachines = append(res.RankMachines, r.machine)
			}
			return res, nil
		}

		// Barrier reached alive: charge the segment and checkpoint.
		res.Cost += cfg.CheckpointInterval + cfg.CheckpointCost
		takeCheckpoint()
		checkpointAt = target
		res.Checkpoints++
	}
}
