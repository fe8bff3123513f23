package checkpoint

import (
	"math"
	"testing"
)

func TestDerivedCheckpointCostScalesLinearly(t *testing.T) {
	// 1/4 of the state checkpointed → 1/4 of the cost.
	if got, want := DerivedCheckpointCost(1200, 250, 1000), 300.0; got != want {
		t.Errorf("DerivedCheckpointCost(1200, 250, 1000) = %v, want %v", got, want)
	}
	if got, want := DerivedCheckpointCost(12, 500, 1000), 6.0; got != want {
		t.Errorf("DerivedCheckpointCost(12, 500, 1000) = %v, want %v", got, want)
	}
}

func TestDerivedCheckpointCostFloor(t *testing.T) {
	// LULESH-like ratio: 2448 of 5245712 bytes is ~0.047%, far below the
	// 1% coordination floor.
	got := DerivedCheckpointCost(1200, 2448, 5245712)
	if want := MinDerivedCostFrac * 1200; got != want {
		t.Errorf("tiny state set: cost %v, want floor %v", got, want)
	}
	// Exactly at the floor fraction: the linear term wins (no double floor).
	atFloor := DerivedCheckpointCost(1000, 10, 1000)
	if want := MinDerivedCostFrac * 1000; atFloor != want {
		t.Errorf("at-floor state set: cost %v, want %v", atFloor, want)
	}
}

func TestDerivedCheckpointCostDegenerate(t *testing.T) {
	for _, tc := range []struct {
		name          string
		derived, full uint64
	}{
		{"zero full size", 100, 0},
		{"derived equals full", 1000, 1000},
		{"derived exceeds full", 2000, 1000},
		{"both zero", 0, 0},
	} {
		if got := DerivedCheckpointCost(120, tc.derived, tc.full); got != 120 {
			t.Errorf("%s: cost %v, want T_chk unchanged (120)", tc.name, got)
		}
	}
}

// TestSweepCostModelMatchesDirectSweep pins the -ckpt-model plumbing: a
// cost-transformed sweep over nominal T_chk values must equal the plain
// sweep over the transformed values point for point, while keeping the
// nominal value on the x-axis.
func TestSweepCostModelMatchesDirectSweep(t *testing.T) {
	app, ok := PaperAppByName("LULESH")
	if !ok {
		t.Fatal("no paper probabilities for LULESH")
	}
	cost := func(tchk float64) float64 { return DerivedCheckpointCost(tchk, 2448, 5245712) }
	nominal := []float64{12, 120, 1200}
	const seed, horizon = 7, 1e6

	model, err := SweepCheckpointCostModelTraced(app, nominal, cost, 0.10, 21600, seed, horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	scaled := make([]float64, len(nominal))
	for i, x := range nominal {
		scaled[i] = cost(x)
	}
	direct, err := SweepCheckpointCostModelTraced(app, scaled, nil, 0.10, 21600, seed, horizon, nil)
	if err != nil {
		t.Fatal(err)
	}

	for i := range nominal {
		if model[i].X != nominal[i] {
			t.Errorf("point %d: x = %v, want nominal %v", i, model[i].X, nominal[i])
		}
		if model[i].Standard != direct[i].Standard || model[i].LetGo != direct[i].LetGo {
			t.Errorf("point %d: efficiencies (%v, %v) != direct sweep (%v, %v)",
				i, model[i].Standard, model[i].LetGo, direct[i].Standard, direct[i].LetGo)
		}
		// Cheaper checkpoints must not hurt efficiency in either arm.
		if model[i].Standard <= 0 || model[i].Standard > 1 || math.IsNaN(model[i].LetGo) {
			t.Errorf("point %d: implausible efficiency %+v", i, model[i])
		}
	}
}
