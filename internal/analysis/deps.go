package analysis

import (
	"github.com/letgo-hpc/letgo/internal/isa"
)

// The deps pass computes the interprocedural region dependency graph:
// for every region, the set of regions whose contents may influence —
// through data flow, address computation, or branch decisions — the
// values stored into it. A backward closure over this graph from an
// app's acceptance-checked output globals yields the live state set: the
// minimal region set a checkpoint must capture for the acceptance check
// to be reproducible (AutoCheck's minimal checkpoint set, at region
// granularity).
//
// The analysis is a forward taint fixpoint. Registers carry region-source
// sets flow-sensitively through each function's blocks; memory is
// flow-insensitive (one source set per region, monotonically growing).
// Calls are matched interprocedurally: argument-register taint joins into
// the callee's entry state, and the callee's full exit register state
// replaces the caller's post-call state — which both routes return values
// and over-approximates callee-clobbered scratch registers soundly.
// Control dependence is tracked per function: the sources of every branch
// operand a function (or any caller on the path to it) evaluates taint
// every store the function performs.

// Deps is the deps pass's fact.
type Deps struct {
	// MemFlow[r] is the set of regions whose contents may influence the
	// values stored into region r (data, address, or control flow). It
	// is transitively closed only through explicit load/store chains;
	// LiveClosure computes the full backward closure.
	MemFlow []RegionSet
}

// LiveClosure returns the backward closure of the dependency graph from
// the given seed regions: the seeds plus every region whose contents may
// influence them.
func (d *Deps) LiveClosure(r *Regions, seeds RegionSet) RegionSet {
	live := seeds.Clone()
	for changed := true; changed; {
		changed = false
		for _, ri := range live.Members() {
			if live.UnionWith(d.MemFlow[ri]) {
				changed = true
			}
		}
	}
	return live
}

// taintState is one function's register taint: a region-source set per
// register, integer file first, float file after.
type taintState []RegionSet

func (a *Analysis) newTaintState() taintState {
	return make(taintState, isa.NumIntRegs+isa.NumFloatRegs)
}

func fslot(r isa.Reg) int { return isa.NumIntRegs + int(r) }

// tunion returns x ∪ y without mutating either (sets in taint states are
// shared and treated as immutable).
func tunion(x, y RegionSet) RegionSet {
	switch {
	case y.Empty():
		return x
	case x.Empty():
		return y
	case x.Contains(y):
		return x
	}
	out := x.Clone()
	out.UnionWith(y)
	return out
}

func (st taintState) joinInto(dst taintState) bool {
	changed := false
	for i := range st {
		j := tunion(dst[i], st[i])
		if !setEq(j, dst[i]) {
			dst[i] = j
			changed = true
		}
	}
	return changed
}

func setEq(x, y RegionSet) bool {
	if x.Empty() && y.Empty() {
		return true
	}
	if x == nil || y == nil {
		return false
	}
	for w := range x {
		if x[w] != y[w] {
			return false
		}
	}
	return true
}

// depState is the interprocedural fixpoint state shared across rounds.
type depState struct {
	r *Regions
	// memFlow is the graph under construction.
	memFlow []RegionSet
	// funcControl[f]: regions influencing any branch f (or a caller on
	// the path to f) evaluates.
	funcControl []RegionSet
	// entry[f]: taint of the argument registers at f's entry, joined
	// over call sites.
	entry []taintState
	// exit[f]: taint of every register at f's returns.
	exit []taintState
	// blockIn: persistent per-block register state.
	blockIn []taintState
	// changed flags any global-state growth during the current round.
	changed bool
}

// computeDeps is the deps pass; it reads the regions pass's facts.
func (a *Analysis) computeDeps() {
	r := a.regions
	s := &depState{r: r}
	s.memFlow = make([]RegionSet, len(r.All))
	for i := range s.memFlow {
		s.memFlow[i] = r.NewSet()
	}
	s.funcControl = make([]RegionSet, len(a.Funcs))
	s.entry = make([]taintState, len(a.Funcs))
	s.exit = make([]taintState, len(a.Funcs))
	for i := range a.Funcs {
		s.funcControl[i] = r.NewSet()
		s.entry[i] = a.newTaintState()
		s.exit[i] = a.newTaintState()
	}
	s.blockIn = make([]taintState, len(a.Blocks))

	// Round-robin the per-function forward fixpoints until no
	// interprocedural fact (memory flow, entry/exit taint, control
	// taint) grows. Every lattice is a finite set union, so this
	// terminates.
	for {
		s.changed = false
		for _, f := range a.Funcs {
			a.depFunc(s, f)
		}
		if !s.changed {
			break
		}
	}

	a.deps = &Deps{MemFlow: s.memFlow}
}

// depFunc runs one function's forward block fixpoint under the current
// interprocedural state.
func (a *Analysis) depFunc(s *depState, f *Func) {
	for _, bi := range a.entries(f) {
		if s.blockIn[bi] == nil {
			s.blockIn[bi] = a.newTaintState()
		}
		// Arguments carry the joined call-site taint; x0/f0 carry it too
		// (a caller may pass through a return slot uninitialized).
		st := s.blockIn[bi]
		for r := isa.Reg(0); r <= 6; r++ {
			st[r] = tunion(st[r], s.entry[f.Index][r])
			st[fslot(r)] = tunion(st[fslot(r)], s.entry[f.Index][fslot(r)])
		}
	}
	// Seed every block: transfer outputs depend on the global memory-flow
	// state, not just block-in register state, so each round must revisit
	// every block under the current global facts.
	a.solve(f.Blocks, func(bi int) (changed []int) {
		b := a.Blocks[bi]
		if s.blockIn[bi] == nil {
			s.blockIn[bi] = a.newTaintState()
		}
		st := append(taintState(nil), s.blockIn[bi]...)
		for i := b.first; i <= b.last; i++ {
			a.depStep(s, f, i, st)
		}
		if b.FallsOff || b.Escapes {
			// Control leaves the analysis's sight: assume the register
			// state reaches a return.
			if st.joinInto(s.exit[f.Index]) {
				s.changed = true
			}
			// And that anything could be stored anywhere afterwards:
			// taint every region with every register's sources.
			for _, rs := range st {
				for ri := range s.memFlow {
					if s.memFlow[ri].UnionWith(rs) {
						s.changed = true
					}
				}
			}
		}
		for _, si := range b.Succs {
			if s.blockIn[si] == nil {
				s.blockIn[si] = a.newTaintState()
			}
			if st.joinInto(s.blockIn[si]) {
				changed = append(changed, si)
			}
		}
		return changed
	})
}

// depStep is the taint transfer function for one instruction.
func (a *Analysis) depStep(s *depState, f *Func, i int, st taintState) {
	in := a.Prog.Instrs[i]
	info := in.Info()
	r := s.r
	src := func(reg isa.Reg) RegionSet {
		if info.FloatSrc {
			return st[fslot(reg)]
		}
		return st[int(reg)]
	}
	setDest := func(v RegionSet) {
		switch info.Dest {
		case isa.DestInt:
			st[in.Rd] = v
		case isa.DestFloat:
			st[fslot(in.Rd)] = v
		}
	}
	loadInto := func(val RegionSet) RegionSet {
		for _, ri := range r.Reads[i].Members() {
			val = tunion(val, regionBit(r, ri))
			val = tunion(val, s.memFlow[ri])
		}
		return val
	}
	storeFrom := func(val RegionSet) {
		val = tunion(val, s.funcControl[f.Index])
		for _, ri := range r.Writes[i].Members() {
			if s.memFlow[ri].UnionWith(val) {
				s.changed = true
			}
		}
	}

	switch {
	case in.Op == isa.CALL:
		ti, ok := a.index(uint64(in.Imm))
		if !ok {
			// Call out of the code segment: faults, nothing flows.
			return
		}
		callee := a.funcOf[ti]
		// Argument taint flows into the callee's entry...
		ch := false
		for reg := isa.Reg(0); reg <= 6; reg++ {
			e := s.entry[callee]
			if j := tunion(e[reg], st[reg]); !setEq(j, e[reg]) {
				e[reg] = j
				ch = true
			}
			if j := tunion(e[fslot(reg)], st[fslot(reg)]); !setEq(j, e[fslot(reg)]) {
				e[fslot(reg)] = j
				ch = true
			}
		}
		// ...as does the caller's control context (a store in the callee
		// is control-dependent on the branches guarding the call).
		if s.funcControl[callee].UnionWith(s.funcControl[f.Index]) {
			ch = true
		}
		if ch {
			s.changed = true
		}
		// The callee's exit register state is the post-call state: it
		// routes return values and covers clobbered scratch registers.
		for reg := range st {
			if reg == int(isa.SP) || reg == int(isa.BP) {
				continue // restored by the convention; keep caller taint
			}
			st[reg] = tunion(st[reg], s.exit[callee][reg])
		}
	case in.Op == isa.RET:
		if st.joinInto(s.exit[f.Index]) {
			s.changed = true
		}
	case in.Op == isa.PUSH:
		storeFrom(src(in.Rs1))
	case in.Op == isa.POP:
		setDest(loadInto(nil))
	case info.Fmt == isa.FmtMemLd: // LD, FLD
		setDest(loadInto(st[in.Rs1]))
	case info.Fmt == isa.FmtMemSt: // ST, FST
		storeFrom(tunion(src(in.Rs2), st[in.Rs1]))
	case info.Fmt == isa.FmtRRB: // branches: control dependence
		t := tunion(st[in.Rs1], st[in.Rs2])
		if s.funcControl[f.Index].UnionWith(t) {
			s.changed = true
		}
	case info.Fmt == isa.FmtRI: // LI, FLI: constants carry no sources
		setDest(nil)
	case info.Fmt == isa.FmtRR:
		setDest(src(in.Rs1))
	case info.Fmt == isa.FmtRRR:
		setDest(tunion(src(in.Rs1), src(in.Rs2)))
	case info.Fmt == isa.FmtRRI:
		setDest(st[in.Rs1])
	default:
		// PRINTI/PRINTF (side channel, not acceptance state), CYCLES,
		// HALT, ABORT, JMP: no data flow into registers or memory.
		setDest(nil)
	}
}

// regionBit returns a one-region set. Cached per region map to keep the
// taint fixpoint allocation-light.
func regionBit(r *Regions, ri int) RegionSet {
	if r.bitCache == nil {
		r.bitCache = make([]RegionSet, len(r.All))
	}
	if r.bitCache[ri] == nil {
		s := r.NewSet()
		s.Add(ri)
		r.bitCache[ri] = s
	}
	return r.bitCache[ri]
}
