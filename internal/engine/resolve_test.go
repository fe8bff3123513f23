package engine_test

import (
	"strings"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/asm"
	"github.com/letgo-hpc/letgo/internal/debug"
	"github.com/letgo-hpc/letgo/internal/engine"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/stats"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// breakpointWhen is the reference ResolveWhens replaces: run from PC 0 to
// a breakpoint at the site's address with ignore count instance-1 and read
// the retired count there.
func breakpointWhen(t *testing.T, prog *isa.Program, s pin.Site) uint64 {
	t.Helper()
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := debug.New(m)
	if _, err := d.SetBreakpoint(s.Addr, s.Instance-1); err != nil {
		t.Fatal(err)
	}
	if stop := d.Run(1 << 32); stop.Reason != debug.StopBreakpoint {
		t.Fatalf("site %#x #%d: stop %+v", s.Addr, s.Instance, stop)
	}
	if m.PC != s.Addr {
		t.Fatalf("site %#x #%d: breakpoint pc %#x", s.Addr, s.Instance, m.PC)
	}
	return m.Retired
}

func checkWhens(t *testing.T, g *engine.Golden, sites []pin.Site) {
	t.Helper()
	whens, err := g.ResolveWhens(sites)
	if err != nil {
		t.Fatal(err)
	}
	if len(whens) != len(sites) {
		t.Fatalf("%d whens for %d sites", len(whens), len(sites))
	}
	for i, s := range sites {
		if want := breakpointWhen(t, g.Prog, s); whens[i] != want {
			t.Errorf("site %d (%#x #%d): ResolveWhens=%d, breakpoint=%d", i, s.Addr, s.Instance, whens[i], want)
		}
	}
}

// TestResolveWhensMatchesBreakpointCounting draws sites the way a campaign
// does — uniformly over dynamic instructions, so they cluster on the hot
// static instructions, many instances of few indices — on every app.
func TestResolveWhensMatchesBreakpointCounting(t *testing.T) {
	for _, app := range append(apps.All(), apps.Extensions()...) {
		t.Run(app.Name, func(t *testing.T) {
			prog, err := app.Compile()
			if err != nil {
				t.Fatal(err)
			}
			g, err := engine.Record(prog, vm.Config{}, 0, 1<<32)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(22)
			sites := make([]pin.Site, 50)
			for i := range sites {
				plan, err := inject.SamplePlan(prog, g.Profile(), rng)
				if err != nil {
					t.Fatal(err)
				}
				sites[i] = plan.Site
			}
			checkWhens(t, g, sites)
		})
	}
}

// TestResolveWhensTable pins the per-index bookkeeping on a loop whose
// body (static indices 2, 3, 4) runs five times.
func TestResolveWhensTable(t *testing.T) {
	prog, err := asm.Assemble(`
.entry main
main:
	li   x1, 0
	li   x2, 5
.loop:
	addi x1, x1, 1
	addi x3, x3, 2
	bne  x1, x2, .loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := engine.Record(prog, vm.Config{}, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	at := func(idx, instance uint64) pin.Site {
		return pin.Site{Addr: isa.CodeBase + idx*isa.InstrBytes, Instance: instance}
	}
	for _, tc := range []struct {
		name    string
		sites   []pin.Site
		unreach bool // want the "never reached" error
	}{
		{name: "no sites"},
		{name: "same site twice", sites: []pin.Site{at(2, 3), at(2, 3)}},
		{name: "one index out of order", sites: []pin.Site{at(2, 4), at(2, 1), at(2, 3)}},
		{name: "two indices interleaved", sites: []pin.Site{at(2, 2), at(3, 1), at(2, 5), at(3, 4), at(0, 1), at(5, 1)}},
		{name: "instance 0", sites: []pin.Site{at(2, 0)}, unreach: true},
		{name: "instance 0 before reachable ones", sites: []pin.Site{at(2, 1), at(2, 0), at(2, 5)}, unreach: true},
		{name: "instance count+1", sites: []pin.Site{at(3, 2), at(3, 6)}, unreach: true},
		{name: "address past the code", sites: []pin.Site{at(4, 1), at(100, 1)}, unreach: true},
		{name: "address below the code", sites: []pin.Site{{Addr: isa.CodeBase - isa.InstrBytes, Instance: 1}}, unreach: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.unreach {
				checkWhens(t, g, tc.sites)
				return
			}
			whens, err := g.ResolveWhens(tc.sites)
			if err == nil || !strings.Contains(err.Error(), "never reached") {
				t.Fatalf("ResolveWhens = %v, %v; want a never-reached error", whens, err)
			}
		})
	}
}
