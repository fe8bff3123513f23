// Package checkpoint implements the paper's Section-7 evaluation: a
// continuous-time event simulation of a long-running HPC application under
// coordinated checkpoint/restart, with and without LetGo. The two state
// machines M-S (Figure 6a: COMP/VERIF/CHK) and M-L (Figure 6b: adds
// LETGO/CONT) are implemented transition-for-transition, parameterized by
// Table 4, with hardware faults arriving as a Poisson process.
package checkpoint

import (
	"fmt"
	"math"

	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/stats"
)

// Params is the Table-4 parameter set.
type Params struct {
	// TChk is the time to write a checkpoint, seconds (system-dependent;
	// the paper uses 12, 120 and 1200 s).
	TChk float64
	// TSyncFrac scales the multi-node coordination overhead:
	// T_sync = TSyncFrac * TChk (paper: 0.1 and 0.5).
	TSyncFrac float64
	// TVFrac scales the acceptance-check time: T_v = TVFrac * TChk
	// (paper: 0.01).
	TVFrac float64
	// TLetGo is the time LetGo spends repairing one crash (paper: 5 s).
	TLetGo float64
	// MTBFaults is the mean time between hardware faults, seconds.
	MTBFaults float64
	// PCrash is the probability that a fault crashes the application.
	PCrash float64
	// PV is the probability that the application passes its acceptance
	// check given one (non-crashing) fault accumulated since the last
	// verification; the model uses PV^faults for several faults.
	PV float64
	// PVPrime is the per-fault pass probability when LetGo has repaired a
	// crash in the current interval.
	PVPrime float64
	// PLetGo is LetGo's continuability (probability a crash is elided and
	// the run continues).
	PLetGo float64
	// Interval is the checkpoint interval T; 0 derives it from Rule.
	Interval float64
	// Rule selects the interval formula when Interval is 0 (default
	// Young's, as in the paper; Daly's higher-order rule for ablation D5).
	Rule IntervalRule
	// WeibullShape, when not 0 and not 1, draws fault inter-arrival times
	// from a Weibull distribution with this shape (mean preserved at
	// MTBFaults). Production failure data is often Weibull with shape < 1
	// (El-Sayed & Schroeder); the paper assumes a Poisson process
	// (shape = 1, the default).
	WeibullShape float64
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.TChk <= 0:
		return fmt.Errorf("checkpoint: TChk must be positive")
	case p.MTBFaults <= 0:
		return fmt.Errorf("checkpoint: MTBFaults must be positive")
	case p.PCrash < 0 || p.PCrash > 1:
		return fmt.Errorf("checkpoint: PCrash out of [0,1]")
	case p.PV < 0 || p.PV > 1 || p.PVPrime < 0 || p.PVPrime > 1:
		return fmt.Errorf("checkpoint: PV/PVPrime out of [0,1]")
	case p.PLetGo < 0 || p.PLetGo > 1:
		return fmt.Errorf("checkpoint: PLetGo out of [0,1]")
	case p.TSyncFrac < 0 || p.TVFrac < 0 || p.TLetGo < 0:
		return fmt.Errorf("checkpoint: negative overhead")
	case p.WeibullShape < 0:
		return fmt.Errorf("checkpoint: negative Weibull shape")
	}
	return nil
}

// TSync is the coordination overhead per checkpoint/recovery.
func (p Params) TSync() float64 { return p.TSyncFrac * p.TChk }

// TV is the acceptance-check time.
func (p Params) TV() float64 { return p.TVFrac * p.TChk }

// TRecover is the rollback time; the paper conservatively sets it equal
// to the checkpoint write time.
func (p Params) TRecover() float64 { return p.TChk }

// MTBF is the mean time between *failures* (crashes): faults thinned by
// the crash probability. The paper simplifies 56% to one-half
// (MTBFaults = 2*MTBF); we keep the exact relation.
func (p Params) MTBF() float64 {
	if p.PCrash == 0 {
		return math.Inf(1)
	}
	return p.MTBFaults / p.PCrash
}

// MTBFLetGo is the effective crash MTBF used to size the LetGo arm's
// checkpoint interval. Table 4 gives MTBF_letgo = MTBF/(1-PLetGo); we
// weight the elision probability by PVPrime, because a continued interval
// that then fails its acceptance check still costs a rollback — only
// continuations that verify actually stretch the failure-free horizon.
// For the paper's iterative apps PVPrime is ~0.95+, so this matches the
// Table-4 formula within a few percent; for check-selective apps like HPL
// it avoids pathologically over-stretching the interval.
func (p Params) MTBFLetGo() float64 {
	rem := 1 - p.PLetGo*p.PVPrime
	if rem <= 0 {
		return math.Inf(1)
	}
	return p.MTBF() / rem
}

// Young returns Young's first-order optimal checkpoint interval
// sqrt(2 * TChk * mtbf) [Young 1974], the interval rule used throughout
// the paper's simulations.
func Young(tchk, mtbf float64) float64 {
	if math.IsInf(mtbf, 1) {
		return math.Sqrt(2 * tchk * 1e12)
	}
	return math.Sqrt(2 * tchk * mtbf)
}

// IntervalFor resolves the checkpoint interval for the given model arm:
// the configured Interval if non-zero, otherwise the configured rule
// (Young's formula by default) against the arm's effective MTBF (LetGo
// lengthens the effective MTBF, so its arm checkpoints less often).
func (p Params) IntervalFor(letgo bool) float64 {
	return p.intervalWith(p.Rule, letgo)
}

// Result aggregates one simulation run.
type Result struct {
	Useful      float64 // accumulated verified useful work, seconds
	Cost        float64 // total wall-clock cost, seconds
	Faults      int     // faults that hit the application
	Crashes     int     // faults that crashed it
	Rollbacks   int     // recoveries from a checkpoint (crash or failed check)
	VerifyFail  int     // failed acceptance checks
	Elided      int     // crashes LetGo continued through (M-L only)
	GaveUp      int     // LetGo give-ups (M-L only)
	Checkpoints int
}

// Efficiency is useful work over total cost (the paper's u/cost metric).
func (r Result) Efficiency() float64 {
	if r.Cost == 0 {
		return 0
	}
	return r.Useful / r.Cost
}

// faultClock generates the fault arrival sequence: exponential gaps (a
// Poisson process, the paper's assumption) or Weibull gaps when a shape
// is configured.
type faultClock struct {
	rng   *stats.RNG
	mean  float64
	shape float64
}

// next returns the time from `now` to the next fault.
func (f *faultClock) next() float64 {
	if f.shape > 0 && f.shape != 1 {
		return f.rng.Weibull(f.shape, f.mean)
	}
	return f.rng.Exp(f.mean)
}

// Simulator state names, matching Figure 6: the from/to label values of
// letgo_sim_transitions_total and the sim_transition event.
const (
	StateComp     = "COMP"
	StateVerif    = "VERIF"
	StateChk      = "CHK"
	StateRollback = "ROLLBACK"
	StateLetGo    = "LETGO"
	StateCont     = "CONT"
)

// Simulation arms: the arm label value of the letgo_sim_* metrics.
const (
	ArmStandard = "standard"
	ArmLetGo    = "letgo"
)

// Simulate is the one simulation kernel behind both arms: the shared
// COMP/VERIF/CHK/ROLLBACK scaffolding (interval bookkeeping, fault clock,
// verification, checkpointing, rollback) runs identically, and the letgo
// flag enables the M-L extension states (Figure 6b's LETGO/CONT) on the
// crash path plus the PVPrime verification bias for continued intervals.
// With letgo=false the crash path and the random draw sequence are
// exactly M-S (Figure 6a): the standard arm never draws PLetGo.
//
// hub, when non-nil, receives every state transition — counted in
// letgo_sim_transitions_total{arm,from,to}, the arm's running cost and
// verified useful work in the letgo_sim_cost_seconds and
// letgo_sim_useful_seconds gauges, one sim_transition event and one
// live-tally record under the arm each — and the run is timed as a
// checkpoint_simulate span. Tracing is strictly passive: a traced run
// consumes the same random stream and produces the same Result as an
// untraced one.
func Simulate(p Params, rng *stats.RNG, horizon float64, letgo bool, hub *obs.Hub) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	T := p.IntervalFor(letgo)
	arm := ArmStandard
	if letgo {
		arm = ArmLetGo
	}
	defer hub.StartSpan("checkpoint_simulate", "arm", arm).End()
	if hub != nil {
		hub.Reg.Help("letgo_sim_transitions_total", "Section-7 simulator state transitions, by arm and edge.")
		hub.Reg.Help("letgo_sim_cost_seconds", "Running simulated wall-clock cost, by arm.")
		hub.Reg.Help("letgo_sim_useful_seconds", "Running verified useful work, by arm.")
	}
	clock := faultClock{rng: rng, mean: p.MTBFaults, shape: p.WeibullShape}

	var res Result
	var cost, u, q float64
	trace := func(from, to string) {
		if hub == nil {
			return
		}
		hub.Counter("letgo_sim_transitions_total", "arm", arm, "from", from, "to", to).Inc()
		hub.Gauge("letgo_sim_cost_seconds", "arm", arm).Set(cost)
		hub.Gauge("letgo_sim_useful_seconds", "arm", arm).Set(u)
		hub.Emit(obs.SimTransitionEvent{Arm: arm, From: from, To: to, Cost: cost, Useful: u})
		hub.Status.Record(arm, false)
	}
	t := clock.next() // time until the next fault
	faults := 0       // non-crash faults since the last verified checkpoint
	isLetGo := false  // M-L only: a repaired crash occurred this interval
	// compState names the computing state for the tracer only: CONT after
	// an elided crash, COMP otherwise (always COMP in the standard arm).
	compState := func() string {
		if isLetGo {
			return StateCont
		}
		return StateComp
	}

	for cost < horizon {
		// COMP/CONT state (they share fault handling; isLetGo
		// distinguishes them, and is constant-false for M-S).
		if t > T-q {
			// Transitions 1/5: reach the end of the interval; verify.
			from := compState()
			t -= T - q
			cost += T - q
			// VERIF state: a continued interval verifies against PVPrime
			// (M-L transition 9), a normal one against PV.
			cost += p.TV()
			trace(from, StateVerif)
			pv := p.PV
			if isLetGo {
				pv = p.PVPrime
			}
			if rng.Float64() < math.Pow(pv, float64(faults)) {
				// Check passes; checkpoint (CHK state).
				u += T
				q = 0
				faults = 0
				isLetGo = false
				cost += p.TChk + p.TSync()
				res.Checkpoints++
				trace(StateVerif, StateChk)
				trace(StateChk, StateComp)
			} else {
				// Transition 2: check fails; roll back.
				res.VerifyFail++
				res.Rollbacks++
				cost += p.TRecover() + p.TSync()
				q = 0
				faults = 0
				isLetGo = false
				trace(StateVerif, StateRollback)
				trace(StateRollback, StateComp)
			}
			continue
		}
		// A fault arrives before the interval ends.
		res.Faults++
		if rng.Float64() < p.PCrash {
			res.Crashes++
			if letgo && !isLetGo {
				// M-L transition 3: crash -> LETGO state. The crashing
				// fault counts toward the corrupted-state exponent.
				cost += t
				q += t
				faults++
				trace(StateComp, StateLetGo)
				if rng.Float64() < p.PLetGo {
					// Transition 4: repaired; continue in CONT.
					cost += p.TLetGo
					isLetGo = true
					res.Elided++
					trace(StateLetGo, StateCont)
				} else {
					// Transition 11: give up; roll back.
					res.GaveUp++
					res.Rollbacks++
					cost += p.TLetGo + p.TRecover() + p.TSync()
					q = 0
					faults = 0
					trace(StateLetGo, StateRollback)
					trace(StateRollback, StateComp)
				}
			} else {
				// Crash; roll back to the last checkpoint. This is M-S
				// transition 4, and M-L transition 6 for a second crash in
				// CONT — LetGo does not re-elide within an already-
				// continued interval (Figure 6b).
				from := compState()
				res.Rollbacks++
				cost += t + p.TRecover() + p.TSync()
				q = 0
				faults = 0
				isLetGo = false
				trace(from, StateRollback)
				trace(StateRollback, StateComp)
			}
		} else {
			// Transitions 3(M-S)/7: latent fault; keep computing.
			from := compState()
			cost += t
			q += t
			faults++
			trace(from, from)
		}
		t = clock.next()
	}
	res.Useful = u
	res.Cost = cost
	return res, nil
}

// CompareArms runs both models on the same parameters (fresh RNG streams
// split from rng) and returns (standard, letgo). hub, when non-nil,
// receives both arms' transitions.
func CompareArms(p Params, rng *stats.RNG, horizon float64, hub *obs.Hub) (Result, Result, error) {
	std, err := Simulate(p, rng.Split(), horizon, false, hub)
	if err != nil {
		return Result{}, Result{}, err
	}
	lg, err := Simulate(p, rng.Split(), horizon, true, hub)
	if err != nil {
		return Result{}, Result{}, err
	}
	return std, lg, nil
}
