package engine

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/debug"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/vm"
)

func record(t *testing.T, name string, every uint64) *Golden {
	t.Helper()
	app, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	prog, err := app.Compile()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Record(prog, vm.Config{}, every, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRecordMatchesPlainExecution(t *testing.T) {
	g := record(t, "SNAP", 0)
	app, _ := apps.ByName("SNAP")
	m, err := app.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1 << 32); err != nil {
		t.Fatal(err)
	}
	if final := g.ForkFinal(); g.Retired != m.Retired || !final.SameState(m) {
		t.Fatalf("recorded golden diverges from plain run: retired %d vs %d", g.Retired, m.Retired)
	}
	// The profile observed while recording equals pin's ProfileRun.
	prof, err := pin.Analyze(g.Prog).ProfileRun(vm.Config{}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	gp := g.Profile()
	if gp.Total != prof.Total {
		t.Fatalf("profile totals differ: %d vs %d", gp.Total, prof.Total)
	}
	for i := range prof.Counts {
		if gp.Counts[i] != prof.Counts[i] {
			t.Fatalf("count[%d] = %d, want %d", i, gp.Counts[i], prof.Counts[i])
		}
	}
}

func TestForkAtReplayEquivalence(t *testing.T) {
	g := record(t, "SNAP", 1000)
	for _, target := range []uint64{0, 1, 999, 1000, 1001, g.Retired / 2, g.Retired - 1} {
		f, wp := g.ForkAt(target)
		if f.Retired != wp || wp > target {
			t.Fatalf("ForkAt(%d) positioned at %d (waypoint %d)", target, f.Retired, wp)
		}
		if target-wp >= g.Every {
			t.Fatalf("ForkAt(%d) chose waypoint %d, more than Every=%d away", target, wp, g.Every)
		}
		if stop := debug.New(f).RunToDynamic(target); stop != nil {
			t.Fatalf("replay to %d stopped: %+v", target, stop)
		}
		// Reference: plain execution from scratch.
		ref, err := vm.New(g.Prog, vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for ref.Retired < target {
			if err := ref.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if f.PC != ref.PC || f.X != ref.X || f.F != ref.F {
			t.Fatalf("replayed state at %d diverges from straight execution", target)
		}
	}
}

func TestAdaptiveThinningBoundsWaypoints(t *testing.T) {
	g := record(t, "SNAP", 16) // far too fine: forces thinning
	if got := g.Waypoints(); got > maxWaypoints+1 {
		t.Fatalf("waypoints = %d, want <= %d", got, maxWaypoints+1)
	}
	if g.Every == 16 && g.Retired/16 > maxWaypoints {
		t.Fatal("spacing never adapted")
	}
	// Invariants: sorted, first at 0, spacing multiples of Every.
	last := uint64(0)
	for i, w := range g.waypoints {
		if i == 0 && w.retired != 0 {
			t.Fatal("first waypoint not at 0")
		}
		if i > 0 && (w.retired <= last || w.retired%g.Every != 0) {
			t.Fatalf("waypoint %d at %d violates ladder invariants (every %d)", i, w.retired, g.Every)
		}
		last = w.retired
	}
}

func TestConcurrentForkAtIsSafe(t *testing.T) {
	g := record(t, "SNAP", 500)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				target := uint64(w*137+i*911) % g.Retired
				f, _ := g.ForkAt(target)
				if stop := debug.New(f).RunToDynamic(target); stop != nil {
					t.Errorf("worker %d: replay stopped: %+v", w, stop)
					return
				}
				// Mutate the fork to exercise COW under concurrency.
				f.Mem.Write8(isa.StackTop-8, uint64(w))
			}
		}(w)
	}
	wg.Wait()
}

// TestGoldenStopErrNamesTheStop pins the error for a recording that
// stopped on something other than a halt: a machine error is not a trap
// and must not be reported as one.
func TestGoldenStopErrNamesTheStop(t *testing.T) {
	if err := goldenStopErr(vm.Stop{Reason: vm.StopHalted}, 100); err != nil {
		t.Fatalf("halt is not an error: %v", err)
	}
	cause := errors.New("vm: step on halted machine")
	err := goldenStopErr(vm.Stop{Reason: vm.StopError, Err: cause}, 100)
	if !errors.Is(err, cause) {
		t.Fatalf("machine error not wrapped: %v", err)
	}
	if strings.Contains(err.Error(), "trapped") || !strings.Contains(err.Error(), "machine error") {
		t.Errorf("machine error reported as %q", err)
	}
	trap := &vm.Trap{Signal: vm.SIGSEGV, PC: isa.CodeBase}
	if err := goldenStopErr(vm.Stop{Reason: vm.StopTrap, Trap: trap}, 100); !strings.Contains(err.Error(), "trapped") || !errors.Is(err, trap) {
		t.Errorf("trap reported as %q", err)
	}
	if err := goldenStopErr(vm.Stop{Reason: vm.StopBudget}, 100); !strings.Contains(err.Error(), "budget of 100") {
		t.Errorf("budget stop reported as %q", err)
	}
	// A hook stop carries neither trap nor error; the reason is all there is.
	if err := goldenStopErr(vm.Stop{Reason: vm.StopRetired}, 100); err == nil || !strings.Contains(err.Error(), "retired") {
		t.Errorf("hook stop reported as %v", err)
	}
}

// TestConvergedAtWaypoints walks a clean replay up the ladder: it is in
// the golden state at every waypoint, at no retirement count between two,
// and not once a register has been corrupted.
func TestConvergedAtWaypoints(t *testing.T) {
	g := record(t, "SNAP", 1000)
	m, _ := g.ForkAt(0)
	d := debug.New(m)
	rungs := 0
	for at, ok := g.WaypointAfter(0, 0); ok; at, ok = g.WaypointAfter(at, 0) {
		if at <= m.Retired || at%g.Every != 0 {
			t.Fatalf("WaypointAfter(%d) = %d, not the next rung (every %d)", m.Retired, at, g.Every)
		}
		if stop := d.RunToDynamic(at - 1); stop != nil {
			t.Fatal(stop.Reason)
		}
		if g.ConvergedAt(m) {
			t.Fatalf("converged at %d, which is no waypoint", m.Retired)
		}
		if stop := d.RunToDynamic(at); stop != nil {
			t.Fatal(stop.Reason)
		}
		if !g.ConvergedAt(m) {
			t.Fatalf("clean replay not converged at waypoint %d", at)
		}
		bad := m.Fork()
		bad.X[7] ^= 1 << 13
		if g.ConvergedAt(bad) {
			t.Fatalf("corrupted machine converged at waypoint %d", at)
		}
		rungs++
	}
	if rungs != g.Waypoints()-1 {
		t.Fatalf("walked %d rungs above 0, ladder has %d", rungs, g.Waypoints()-1)
	}
	// skip counts rungs past the next one.
	if at, ok := g.WaypointAfter(1, 2); !ok || at != 3*g.Every {
		t.Errorf("WaypointAfter(1, skip 2) = %d, %v; want %d", at, ok, 3*g.Every)
	}
	if _, ok := g.WaypointAfter(0, g.Waypoints()-1); ok {
		t.Error("WaypointAfter found a rung past the end of the ladder")
	}
	// The replay runs out into the golden final state.
	if stop := d.RunToDynamic(g.Retired); stop == nil || stop.Reason != debug.StopHalt {
		t.Fatalf("replay to the end stopped with %+v", stop)
	}
	if !m.SameState(g.ForkFinal()) {
		t.Fatal("clean replay does not end in the golden final state")
	}
}

// TestConcurrentFinalAndWaypointReads has eight goroutines read the final
// machine (through private forks — a Memory's reads move its caches) and
// compare against the same waypoint at once; run under -race.
func TestConcurrentFinalAndWaypointReads(t *testing.T) {
	g := record(t, "SNAP", 500)
	app, _ := apps.ByName("SNAP")
	want, err := app.Output(g.ForkFinal())
	if err != nil {
		t.Fatal(err)
	}
	at, _ := g.WaypointAfter(0, 3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m, _ := g.ForkAt(at)
			if stop := debug.New(m).RunToDynamic(at); stop != nil || !g.ConvergedAt(m) {
				t.Errorf("worker %d: not converged at waypoint %d", w, at)
			}
			for i := 0; i < 20; i++ {
				final := g.ForkFinal()
				if ok, err := app.Accept(final); err != nil || !ok {
					t.Errorf("worker %d: golden final fails acceptance: %v", w, err)
					return
				}
				got, err := app.Output(final)
				if err != nil || !app.MatchesGolden(got, want) {
					t.Errorf("worker %d: golden final output differs: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
