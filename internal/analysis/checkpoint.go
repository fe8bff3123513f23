package analysis

import (
	"fmt"
	"sort"
	"strings"

	"github.com/letgo-hpc/letgo/internal/isa"
)

// CheckpointSet derives an app's minimal checkpoint state and
// repair-safety facts from the dependency analysis. The live state set
// is the backward closure of the region dependency graph from the
// acceptance-checked output globals: every region outside it provably
// cannot influence the acceptance check, so a checkpoint that captures
// only the live regions reproduces the check's verdict (AutoCheck's
// minimal checkpoint set at region granularity).
//
// On top of the live set, a backward can-reach dataflow certifies
// repair-safe injection sites: program points where a corrupted
// destination register provably cannot flow — by data, address, or
// control — into any live region, and therefore cannot cause silent
// data corruption (Boston et al.'s execution-model safety, specialized
// to LetGo's bit-flip model). Store-address operands are always
// reachable (a corrupt address can redirect a store into live state),
// and branch operands are always reachable (a corrupt comparison can
// skip live stores); PRINTI/PRINTF are side channels the acceptance
// check never reads, so they are not sinks.

// StateSet is the derived checkpoint and repair-safety summary for one
// program against one set of acceptance outputs.
type StateSet struct {
	// Outputs are the acceptance-checked global symbols, sorted.
	Outputs []string
	// Live is the derived live region set (the minimal checkpoint set).
	Live RegionSet
	// DerivedBytes is the byte size of the live set; FullBytes the byte
	// size of the whole data address space (globals + heap + stack).
	DerivedBytes, FullBytes uint64
	// GlobalBytes and LiveGlobalBytes split out the global segment.
	GlobalBytes, LiveGlobalBytes uint64
	// SafeSites counts reachable destination-writing instructions whose
	// corruption provably cannot reach the acceptance check, out of
	// DestSites total.
	SafeSites, DestSites int

	an     *Analysis
	canOut []RegSet
}

// Workload is what CheckpointSet needs from an app: its compiled program
// and the global symbols its acceptance check reads. apps.App satisfies
// it.
type Workload interface {
	Compile() (*isa.Program, error)
	AcceptanceGlobals() []string
}

// CheckpointSet compiles the app and derives its minimal checkpoint
// state set and repair-safety facts.
func CheckpointSet(app Workload) (*StateSet, error) {
	prog, err := app.Compile()
	if err != nil {
		return nil, err
	}
	return Analyze(prog).CheckpointSet(app.AcceptanceGlobals())
}

// CheckpointSet derives the live state set and repair-safety facts for
// the given acceptance-output globals.
func (a *Analysis) CheckpointSet(outputs []string) (*StateSet, error) {
	if len(outputs) == 0 {
		return nil, fmt.Errorf("checkpoint set: no acceptance outputs declared")
	}
	r := a.Regions()
	a.depsOnce.Do(func() { a.timed(passDeps, a.computeDeps) })

	seeds := r.NewSet()
	sorted := append([]string(nil), outputs...)
	sort.Strings(sorted)
	for _, name := range sorted {
		sym, ok := a.Prog.Symbol(name)
		if !ok || sym.Kind != isa.SymGlobal {
			return nil, fmt.Errorf("checkpoint set: output %q is not a global symbol", name)
		}
		ri, ok := r.RegionAt(sym.Addr, a.Prog)
		if !ok {
			return nil, fmt.Errorf("checkpoint set: output %q has no region", name)
		}
		seeds.Add(ri)
	}

	s := &StateSet{Outputs: sorted, an: a}
	s.Live = a.deps.LiveClosure(r, seeds)
	s.sizeRegions(a, r)
	s.computeSafety(a, r)
	return s, nil
}

// sizeRegions totals the live set's bytes. Frames are stack sub-ranges:
// they are counted individually unless the unattributed stack region is
// itself live, in which case the whole stack is charged once.
func (s *StateSet) sizeRegions(a *Analysis, r *Regions) {
	s.GlobalBytes = a.Prog.Globals
	s.FullBytes = a.Prog.Globals + isa.DefaultHeapBytes + isa.DefaultStackBytes
	stackLive := s.Live.Has(r.stack)
	for _, ri := range s.Live.Members() {
		reg := r.All[ri]
		switch reg.Kind {
		case RegionGlobal, RegionAnonGlobal:
			s.LiveGlobalBytes += reg.Size
			s.DerivedBytes += reg.Size
		case RegionHeap:
			s.DerivedBytes += reg.Size
		case RegionStack:
			s.DerivedBytes += reg.Size
		case RegionFrame:
			if !stackLive {
				s.DerivedBytes += reg.Size
			}
		}
	}
}

// RegionCount returns the total number of regions in the partition.
func (s *StateSet) RegionCount() int { return len(s.an.regions.All) }

// LiveRegions returns the live regions in index order.
func (s *StateSet) LiveRegions() []*Region {
	r := s.an.regions
	var out []*Region
	for _, ri := range s.Live.Members() {
		out = append(out, r.All[ri])
	}
	return out
}

// RepairSafeAt reports whether corrupting the destination register of
// the instruction at addr provably cannot reach the acceptance check.
// ok is false when the instruction writes no register, addr is outside
// the code segment, or the instruction is unreachable.
func (s *StateSet) RepairSafeAt(addr uint64) (safe, ok bool) {
	a := s.an
	i, valid := a.index(addr)
	if !valid || !a.reach[a.blockOf[i]] {
		return false, false
	}
	in := a.Prog.Instrs[i]
	switch in.Info().Dest {
	case isa.DestInt:
		return !s.canOut[i].HasInt(in.Rd), true
	case isa.DestFloat:
		return !s.canOut[i].HasFloat(in.Rd), true
	default:
		return false, false
	}
}

// computeSafety runs the backward can-reach fixpoint: canOut[i] is the
// set of registers whose value after instruction i may influence a live
// region (and hence the acceptance check).
func (s *StateSet) computeSafety(a *Analysis, r *Regions) {
	s.canOut = make([]RegSet, len(a.Prog.Instrs))
	canIn := make([]RegSet, len(a.Blocks)) // per block entry

	// retCan[f]: registers that matter at f's returns (joined over call
	// sites' post-call states). entryCan[f]: registers that matter at
	// f's entry, read back at call sites.
	retCan := make([]RegSet, len(a.Funcs))
	entryCan := make([]RegSet, len(a.Funcs))

	calleeOf := func(in isa.Instruction) (int, bool) {
		ti, ok := a.index(uint64(in.Imm))
		if !ok {
			return 0, false
		}
		return a.funcOf[ti], true
	}

	// step computes canIn from canOut for one instruction; record=true
	// also accumulates interprocedural boundary growth.
	changed := false
	step := func(i int, out RegSet) RegSet {
		in := a.Prog.Instrs[i]
		info := in.Info()
		use, def := useDef(in)
		res := out.minus(def)
		addUse := func() { res = res.union(use) }
		switch {
		case in.Op == isa.CALL:
			callee, ok := calleeOf(in)
			if !ok {
				return res
			}
			// The callee's exit state is the post-call state, so
			// everything that matters after the call matters at the
			// callee's returns; what matters before the call is what
			// the callee's entry needs, plus sp (a corrupt sp stores
			// the return address at a wild location).
			if u := retCan[callee].union(out); u != retCan[callee] {
				retCan[callee] = u
				changed = true
			}
			res = entryCan[callee]
			var sp RegSet
			sp.addInt(isa.SP)
			sp.addInt(isa.BP) // callers resume with the callee-restored bp
			res = res.union(sp)
		case in.Op == isa.RET:
			res = retCan[a.funcOf[i]]
			var sp RegSet
			sp.addInt(isa.SP)
			res = res.union(sp)
		case info.Fmt == isa.FmtRRB:
			// Branch operands always matter: a corrupt comparison can
			// skip stores into live state.
			addUse()
		case info.Store:
			// Store address operands always matter; the value operand
			// matters iff the store can land in live state. PUSH's use
			// set is {value, sp}; ST/FST's is {addr, value}; sp is an
			// address too — so "may write live" pulls in the full use
			// set and otherwise only the address registers do.
			if r.Writes[i].Intersects(s.Live) {
				addUse()
			} else if in.Op == isa.PUSH {
				res.addInt(isa.SP)
			} else {
				res.addInt(in.Rs1)
			}
		default:
			// Value flow: an instruction's sources matter only when its
			// destination does.
			if !out.minus(out.minus(def)).Empty() {
				addUse()
			}
		}
		return res
	}

	for {
		changed = false
		for _, f := range a.Funcs {
			// Backward block fixpoint, liveness-style.
			a.solve(f.Blocks, func(bi int) []int {
				b := a.Blocks[bi]
				var cur RegSet
				if b.FallsOff || b.Escapes {
					cur = allRegs
				}
				for _, si := range b.Succs {
					cur = cur.union(canIn[si])
				}
				for i := b.last; i >= b.first; i-- {
					s.canOut[i] = cur
					cur = step(i, cur)
				}
				if cur == canIn[bi] {
					return nil
				}
				canIn[bi] = cur
				return b.Preds
			})
			// Publish the entry state for call sites.
			if len(f.Blocks) > 0 {
				if u := entryCan[f.Index].union(canIn[f.Blocks[0]]); u != entryCan[f.Index] {
					entryCan[f.Index] = u
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	for i := range a.Prog.Instrs {
		if !a.reach[a.blockOf[i]] {
			continue
		}
		in := a.Prog.Instrs[i]
		switch in.Info().Dest {
		case isa.DestInt:
			s.DestSites++
			if !s.canOut[i].HasInt(in.Rd) {
				s.SafeSites++
			}
		case isa.DestFloat:
			s.DestSites++
			if !s.canOut[i].HasFloat(in.Rd) {
				s.SafeSites++
			}
		}
	}
}

// Describe renders a deterministic multi-line summary of the state set,
// used by the snapshot goldens and letgo-vet.
func (s *StateSet) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "outputs: %s\n", strings.Join(s.Outputs, ", "))
	r := s.an.regions
	fmt.Fprintf(&b, "regions: %d total, %d live\n", len(r.All), s.Live.Count())
	for _, reg := range s.LiveRegions() {
		switch reg.Kind {
		case RegionGlobal, RegionAnonGlobal, RegionHeap:
			fmt.Fprintf(&b, "  live %-12s %s @0x%x +%dB\n", reg.Kind, reg.Name, reg.Addr, reg.Size)
		default:
			fmt.Fprintf(&b, "  live %-12s %s +%dB\n", reg.Kind, reg.Name, reg.Size)
		}
	}
	var dropped []string
	for _, reg := range r.All {
		if !s.Live.Has(reg.Index) && (reg.Kind == RegionGlobal || reg.Kind == RegionHeap || reg.Kind == RegionStack) {
			dropped = append(dropped, reg.Name)
		}
	}
	if len(dropped) > 0 {
		fmt.Fprintf(&b, "dropped: %s\n", strings.Join(dropped, ", "))
	}
	fmt.Fprintf(&b, "derived: %d of %d bytes (%.4f%%)\n",
		s.DerivedBytes, s.FullBytes, 100*float64(s.DerivedBytes)/float64(s.FullBytes))
	fmt.Fprintf(&b, "repair-safe: %d of %d destination sites\n", s.SafeSites, s.DestSites)
	return b.String()
}
