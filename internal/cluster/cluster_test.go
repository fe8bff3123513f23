package cluster

import (
	"reflect"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/isa"
)

func snapProg(t *testing.T) *isa.Program {
	t.Helper()
	app, ok := apps.ByName("SNAP")
	if !ok {
		t.Fatal("SNAP missing")
	}
	p, err := app.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFaultFreeJobCompletes(t *testing.T) {
	cfg := Config{
		Prog:               snapProg(t),
		Ranks:              4,
		CheckpointInterval: 60_000,
		CheckpointCost:     3_000,
		RecoveryCost:       3_000,
		Seed:               1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job did not complete: %+v", res)
	}
	if res.Rollbacks != 0 || res.FaultsInjected != 0 {
		t.Errorf("fault-free job had rollbacks/faults: %+v", res)
	}
	if res.Checkpoints == 0 {
		t.Error("no checkpoints taken")
	}
	eff := res.Efficiency()
	if eff <= 0.5 || eff >= 1 {
		t.Errorf("efficiency = %v, want (0.5, 1): checkpoint overhead only", eff)
	}
	// Every rank finished with identical correct output.
	app, _ := apps.ByName("SNAP")
	if len(res.RankMachines) != 4 {
		t.Fatalf("rank machines = %d", len(res.RankMachines))
	}
	for i, m := range res.RankMachines {
		ok, err := app.Accept(m)
		if err != nil || !ok {
			t.Errorf("rank %d acceptance: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestFaultyJobRollsBackAndCompletes(t *testing.T) {
	// Aggregate across seeds: individual seeds may dodge every crash.
	var faults, rollbacks, elided, completed int
	for seed := uint64(11); seed < 17; seed++ {
		cfg := Config{
			Prog:                    snapProg(t),
			Ranks:                   2,
			CheckpointInterval:      50_000,
			CheckpointCost:          2_000,
			RecoveryCost:            2_000,
			MeanInstrsBetweenFaults: 40_000,
			Seed:                    seed,
			MaxCost:                 1 << 28,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed {
			completed++
		}
		faults += res.FaultsInjected
		rollbacks += res.Rollbacks
		elided += res.CrashesElided
	}
	if completed == 0 {
		t.Fatal("no job completed")
	}
	if faults == 0 {
		t.Error("no faults injected")
	}
	if rollbacks == 0 {
		t.Error("faulty non-LetGo jobs should have rolled back at least once")
	}
	if elided != 0 {
		t.Error("non-LetGo jobs recorded elided crashes")
	}
}

func TestLetGoElidesRankCrashes(t *testing.T) {
	base := Config{
		Prog:                    snapProg(t),
		Ranks:                   2,
		CheckpointInterval:      50_000,
		CheckpointCost:          2_000,
		RecoveryCost:            2_000,
		MeanInstrsBetweenFaults: 30_000,
		MaxCost:                 1 << 28,
	}

	// Aggregate over several seeds to make the comparison robust: LetGo
	// must elide crashes, reduce rollbacks, and win on efficiency.
	var effStd, effLG float64
	var rbStd, rbLG, elided int
	for seed := uint64(0); seed < 12; seed++ {
		cfg := base
		cfg.Seed = 100 + seed
		std, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.UseLetGo = true
		lg, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !std.Completed || !lg.Completed {
			t.Fatalf("seed %d: incomplete: std=%v lg=%v", seed, std.Completed, lg.Completed)
		}
		effStd += std.Efficiency()
		effLG += lg.Efficiency()
		rbStd += std.Rollbacks
		rbLG += lg.Rollbacks
		elided += lg.CrashesElided
	}
	if elided == 0 {
		t.Error("LetGo elided no crashes across five jobs")
	}
	if rbLG >= rbStd {
		t.Errorf("rollbacks with LetGo (%d) should be below without (%d)", rbLG, rbStd)
	}
	if effLG <= effStd {
		t.Errorf("efficiency with LetGo %.4f should beat without %.4f", effLG/12, effStd/12)
	}
	t.Logf("mean efficiency: standard %.4f, letgo %.4f; rollbacks %d vs %d; elided %d",
		effStd/12, effLG/12, rbStd, rbLG, elided)
}

func TestJobDeterminism(t *testing.T) {
	cfg := Config{
		Prog:                    snapProg(t),
		Ranks:                   2,
		UseLetGo:                true,
		CheckpointInterval:      50_000,
		CheckpointCost:          2_000,
		RecoveryCost:            2_000,
		MeanInstrsBetweenFaults: 100_000,
		Seed:                    42,
		MaxCost:                 1 << 28,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Rollbacks != b.Rollbacks || a.FaultsInjected != b.FaultsInjected {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil program accepted")
	}
	p := snapProg(t)
	if _, err := Run(Config{Prog: p, Ranks: 0, CheckpointInterval: 1}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := Run(Config{Prog: p, Ranks: 1}); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestCostCapAbortsHopelessJob(t *testing.T) {
	cfg := Config{
		Prog:                    snapProg(t),
		Ranks:                   2,
		CheckpointInterval:      300_000, // longer than the mean fault gap
		MeanInstrsBetweenFaults: 15_000,  // crash storm: effectively never finishes
		Seed:                    3,
		MaxCost:                 4_000_000,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		// Completing against these odds is possible but wildly unlikely;
		// treat it as suspicious.
		t.Logf("job unexpectedly completed: %+v", res)
		return
	}
	if res.Useful != 0 || res.Efficiency() != 0 {
		t.Error("aborted job should report zero useful work")
	}
}

// TestPinnedResults pins whole jobs, rollbacks included, number for number
// (efficiency is Useful/Cost): how a checkpoint is held and restored — a
// frozen machine fork, forked again on every rollback — must move none.
func TestPinnedResults(t *testing.T) {
	for _, tc := range []struct {
		letgo bool
		seed  uint64
		want  Result
	}{
		{false, 100, Result{Completed: true, Useful: 313537, Cost: 637666, Checkpoints: 6, Rollbacks: 6, FaultsInjected: 154}},
		{false, 102, Result{Completed: true, Useful: 313551, Cost: 585613, Checkpoints: 6, Rollbacks: 5, FaultsInjected: 193}},
		{false, 104, Result{Completed: true, Useful: 313736, Cost: 689736, Checkpoints: 6, Rollbacks: 7, FaultsInjected: 187}},
		{true, 100, Result{Completed: true, Useful: 311219, Cost: 428436, Checkpoints: 6, Rollbacks: 2, FaultsInjected: 114, CrashesElided: 3}},
		{true, 107, Result{Completed: true, Useful: 313564, Cost: 429564, Checkpoints: 6, Rollbacks: 2, FaultsInjected: 152, CrashesElided: 3}},
	} {
		got, err := Run(Config{
			Prog: snapProg(t), Ranks: 2, UseLetGo: tc.letgo,
			CheckpointInterval: 50_000, CheckpointCost: 2_000, RecoveryCost: 2_000,
			MeanInstrsBetweenFaults: 6_000, Seed: tc.seed, MaxCost: 1 << 28,
		})
		if err != nil {
			t.Fatal(err)
		}
		got.RankMachines = nil
		if !reflect.DeepEqual(*got, tc.want) {
			t.Errorf("letgo=%v seed %d:\n got %+v\nwant %+v", tc.letgo, tc.seed, *got, tc.want)
		}
	}
}

// TestHaltedRankDoesNotWrapCost pins the configuration that found the
// defect: a rank that halts before a barrier keeps Retired below the next
// checkpointAt, and the unsigned segment length used to wrap into Cost
// (18 446 744 073 709 389 321 without LetGo). With the subtraction
// saturated both arms show what the job really does: the surviving rank,
// silently corrupted, never halts, and the job runs into the default cost
// cap (1000 intervals) one barrier step at a time.
func TestHaltedRankDoesNotWrapCost(t *testing.T) {
	const interval, maxCost = 50_000, 1000 * 50_000
	for _, tc := range []struct {
		letgo bool
		want  Result
	}{
		{false, Result{Cost: 50000958, Checkpoints: 161, Rollbacks: 8720, FaultsInjected: 8538}},
		{true, Result{Cost: 50000325, Checkpoints: 37, Rollbacks: 32140, FaultsInjected: 8229, CrashesElided: 280}},
	} {
		got, err := Run(Config{
			Prog: snapProg(t), Ranks: 2, UseLetGo: tc.letgo,
			CheckpointInterval: interval, MeanInstrsBetweenFaults: 6_000, Seed: 105,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost <= maxCost || got.Cost > maxCost+interval {
			t.Errorf("letgo=%v: Cost %d is not one step past the cap %d", tc.letgo, got.Cost, maxCost)
		}
		got.RankMachines = nil
		if !reflect.DeepEqual(*got, tc.want) {
			t.Errorf("letgo=%v:\n got %+v\nwant %+v", tc.letgo, *got, tc.want)
		}
	}
}
