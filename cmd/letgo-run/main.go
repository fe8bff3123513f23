// letgo-run executes a program on the simulated machine, optionally under
// LetGo supervision, and reports the outcome.
//
// The input is a benchmark name (-app), a MiniC source file (.mc), an
// assembly file (.s) or a compiled object (.lgo).
//
// Usage:
//
//	letgo-run -app LULESH -mode E
//	letgo-run -mode B prog.mc
//	letgo-run -mode off prog.lgo
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/cli"
	"github.com/letgo-hpc/letgo/internal/core"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/trace"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// progressChunk is the instruction granularity at which a -progress run
// surfaces its retired count between vm resumptions.
const progressChunk = 1 << 22

func main() {
	t := cli.New("letgo-run")
	appName := flag.String("app", "", "run a built-in benchmark app (LULESH, CLAMR, HPL, COMD, SNAP, PENNANT)")
	mode := flag.String("mode", "E", "LetGo mode: off, B (basic), E (enhanced)")
	budget := flag.Uint64("budget", 1<<28, "instruction budget before declaring a hang")
	events := flag.Bool("events", false, "print the LetGo repair event log")
	traceN := flag.Int("trace", 0, "keep an N-instruction history and print a crash report on faults (mode off only)")
	t.TelemetryFlags(false)
	flag.Parse()

	prog, app, err := cli.LoadProgram(t.Name, *appName, flag.Args())
	if err != nil {
		t.Fatal(err)
	}
	t.Open()

	m, err := vm.New(prog, vm.Config{Out: os.Stdout})
	if err != nil {
		t.Fatal(err)
	}
	name := "program"
	if app != nil {
		name = app.Name
	} else if flag.NArg() > 0 {
		name = flag.Arg(0)
	}
	if t.Hub != nil {
		t.Hub.Emit(obs.PhaseEvent{App: name, Phase: "run"})
		m.OnTrap = func(tr *vm.Trap) {
			t.Hub.Counter("letgo_vm_traps_total", "signal", tr.Signal.String()).Inc()
		}
	}
	t.Status.Begin(name, "", 0)
	t.Status.SetPhase("run")
	t.Status.Execute(0)

	if strings.EqualFold(*mode, "off") {
		var ring *trace.Ring
		var err error
		if *traceN > 0 {
			ring = trace.NewRing(*traceN)
			err = trace.RunTraced(m, ring, *budget)
			t.Status.SetCompleted(int(m.Retired))
		} else {
			runChunked(t, m, *budget, func(target uint64) bool {
				err = m.Run(target)
				return err == vm.ErrBudget
			})
		}
		t.Status.Done(false)
		switch {
		case err == nil:
			fmt.Println("outcome: completed")
		case err == vm.ErrBudget:
			fmt.Println("outcome: hang (budget exhausted)")
		default:
			fmt.Printf("outcome: crashed (%v)\n", err)
			if trap, ok := err.(*vm.Trap); ok && ring != nil {
				trace.CrashReport(os.Stdout, m, trap, ring)
			}
		}
	} else {
		opts := core.Options{Mode: core.ModeEnhanced, Obs: t.Hub}
		if strings.EqualFold(*mode, "B") {
			opts.Mode = core.ModeBasic
		}
		// The runner keeps its repair state across resumptions, so the
		// final Result is identical to a single Run call.
		runner := core.Attach(m, pin.Analyze(prog), opts)
		var res core.Result
		runChunked(t, m, *budget, func(target uint64) bool {
			res = runner.Run(target)
			return res.Outcome == core.RunHang
		})
		t.Status.Done(false)
		fmt.Printf("outcome: %v  signal: %v  crashes elided: %d  retired: %d\n",
			res.Outcome, res.Signal, res.Repairs, res.Retired)
		if *events {
			fmt.Print(trace.FormatEvents(res.Events))
		}
	}
	report(app, m)
	if t.Hub != nil {
		t.Hub.Reg.Help("letgo_vm_retired_instructions_total", "Instructions retired by the machine.")
		t.Hub.Counter("letgo_vm_retired_instructions_total").Add(m.Retired)
	}
	t.Finish(false, "")
}

// runChunked drives the machine to the budget through resume, which runs
// to an absolute retired-instruction target and reports whether it
// stopped only because it reached it. With live progress enabled the
// targets advance in fixed chunks so the retired count surfaces between
// resumptions; the chunking is invisible to the program (the budget check
// in vm.Run is against the absolute retired count).
func runChunked(t *cli.Tool, m *vm.Machine, budget uint64, resume func(target uint64) bool) {
	if t.Status == nil {
		resume(budget)
		return
	}
	for {
		target := m.Retired + progressChunk
		if target > budget {
			target = budget
		}
		more := resume(target)
		t.Status.SetCompleted(int(m.Retired))
		if !more || target >= budget {
			return
		}
	}
}

// report runs the app's acceptance check when a benchmark was requested
// and the machine finished.
func report(app *apps.App, m *vm.Machine) {
	if app == nil || !m.Halted {
		return
	}
	ok, err := app.Accept(m)
	if err != nil {
		fmt.Printf("acceptance check: error: %v\n", err)
		return
	}
	fmt.Printf("acceptance check (%s): passed=%v\n", app.Name, ok)
}
