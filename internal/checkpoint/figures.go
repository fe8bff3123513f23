package checkpoint

import (
	"fmt"

	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/stats"
)

// Point is one (x, efficiency-pair) sample of a figure series.
type Point struct {
	X        float64 // checkpoint cost (Fig 7) or node count (Fig 8)
	Standard float64 // efficiency without LetGo
	LetGo    float64 // efficiency with LetGo
}

// Gain is the absolute efficiency improvement at this point.
func (p Point) Gain() float64 { return p.LetGo - p.Standard }

// DefaultHorizon is the simulated wall-clock span: ten years, the paper's
// "long simulation time" for asymptotic efficiency.
const DefaultHorizon = 10 * 365 * 24 * 3600.0

// sweep is the one kernel behind both figure sweeps: for each x it builds
// the model parameters, runs both arms on RNG streams split from a single
// seeded source, and records the efficiency pair. hub, when non-nil,
// times the sweep as a checkpoint_sweep span and receives every run's
// transitions (see Simulate).
func sweep(xs []float64, params func(x float64) (Params, error), seed uint64, horizon float64, hub *obs.Hub) ([]Point, error) {
	defer hub.StartSpan("checkpoint_sweep").End()
	rng := stats.NewRNG(seed)
	out := make([]Point, 0, len(xs))
	for _, x := range xs {
		p, err := params(x)
		if err != nil {
			return nil, err
		}
		std, lg, err := CompareArms(p, rng, horizon, hub)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{X: x, Standard: std.Efficiency(), LetGo: lg.Efficiency()})
	}
	return out, nil
}

// Figure7 reproduces the paper's Figure 7: efficiency with and without
// LetGo as the checkpoint cost scales (12 s, 120 s, 1200 s) at
// MTBFaults = 21600 s and 10% synchronization overhead.
func Figure7(app AppProbabilities, seed uint64) ([]Point, error) {
	return SweepCheckpointCostModelTraced(app, []float64{12, 120, 1200}, nil, 0.10, 21600, seed, DefaultHorizon, nil)
}

// SweepCheckpointCostModelTraced runs both models across checkpoint
// costs, reporting state transitions to hub when non-nil. A non-nil cost
// transforms each nominal T_chk before it enters the model (e.g.
// DerivedCheckpointCost for a derived minimal checkpoint set), while the
// sweep's x-axis keeps the nominal value.
func SweepCheckpointCostModelTraced(app AppProbabilities, tchks []float64, cost func(float64) float64, syncFrac, mtbFaults float64, seed uint64, horizon float64, hub *obs.Hub) ([]Point, error) {
	return sweep(tchks, func(tchk float64) (Params, error) {
		if cost != nil {
			tchk = cost(tchk)
		}
		return ParamsFor(app, tchk, syncFrac, mtbFaults), nil
	}, seed, horizon, hub)
}

// Figure8 reproduces the paper's Figure 8: efficiency as the system
// scales from 100k to 400k nodes. The 100k-node system has a crash MTBF
// of 12 hours; MTBF halves per doubling of the node count, and
// MTBFaults = 2*MTBF (the paper's simplification).
func Figure8(app AppProbabilities, tchk float64, seed uint64) ([]Point, error) {
	return SweepScaleTraced(app, tchk, 0.10, []int{100_000, 200_000, 400_000}, seed, DefaultHorizon, nil)
}

// SweepScaleTraced runs both models across system sizes, reporting state
// transitions to hub when non-nil.
func SweepScaleTraced(app AppProbabilities, tchk, syncFrac float64, nodes []int, seed uint64, horizon float64, hub *obs.Hub) ([]Point, error) {
	xs := make([]float64, len(nodes))
	for i, n := range nodes {
		xs[i] = float64(n)
	}
	return sweep(xs, func(x float64) (Params, error) {
		if x <= 0 {
			return Params{}, fmt.Errorf("checkpoint: non-positive node count %d", int(x))
		}
		mtbf := 12 * 3600.0 * 100_000 / x // crash MTBF shrinks with scale
		return ParamsFor(app, tchk, syncFrac, 2*mtbf), nil
	}, seed, horizon, hub)
}
