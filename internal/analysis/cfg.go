// Package analysis implements static program analysis over isa.Program:
// basic-block control-flow graphs, a per-PC stack-depth dataflow, backward
// register liveness over both register files, and the lint checks behind
// the letgo-vet tool.
//
// The analyses exist to sharpen LetGo's repair heuristics with facts the
// 3-instruction prologue scan cannot see (Boston et al. and AutoCheck,
// PAPERS.md, both argue resilience decisions should rest on real program
// analysis):
//
//   - Heuristic II's frame bound becomes a per-PC interval on the
//     legitimate bp-sp gap, computed by a meet-over-paths fixpoint instead
//     of assuming the prologue allocation is the whole story (it is not
//     during call sequences, which push argument-save temps).
//   - Heuristic I's zero-fill can be classified: a fault whose destination
//     register is statically dead is architecturally masked, which makes
//     the paper's Section-6 "zero-filling is usually benign" explanation a
//     measurable quantity in campaign reports.
//
// The ISA has no indirect branches (JMP/CALL/Bxx targets are immediates;
// only RET is indirect, and it is modeled interprocedurally as "the callee
// returns balanced"), so the CFG is exact. Analyses still degrade
// gracefully to "unknown" when a program writes sp or bp through opaque
// ops, and consumers fall back to the prologue scan or the named
// FallbackFrameBytes constant.
package analysis

import (
	"fmt"

	"github.com/letgo-hpc/letgo/internal/isa"
)

// Block is one basic block: a maximal straight-line run of instructions
// within a single function, entered only at Start and left only after
// End-InstrBytes.
type Block struct {
	Index int
	// Start and End delimit the block's code addresses; End is exclusive.
	Start, End uint64
	// Succs and Preds are intra-function CFG edges (block indices). A
	// CALL is modeled as falling through to its return point.
	Succs, Preds []int
	// Func is the index of the containing Func.
	Func int
	// FallsOff marks a block whose execution can run past the end of its
	// function without a terminating instruction (into the next function,
	// or past the code segment into a fetch fault).
	FallsOff bool
	// Escapes marks a block whose terminator branches to an address
	// outside its function (a tail-call idiom in hand-written assembly).
	// Analyses treat it as an exit with fully conservative state.
	Escapes bool

	// first and last are the indices of the block's first and last
	// instructions.
	first, last int
}

// Func is one analyzed function: a symbol-table function, or a synthetic
// anonymous region covering code no function symbol claims (raw programs
// built without symbol tables).
type Func struct {
	Index int
	// Sym is the function symbol; for anonymous regions Sym.Name is ""
	// and Sym covers the uncovered address range.
	Sym isa.Symbol
	// Blocks lists the function's block indices in address order; the
	// first is the function entry block.
	Blocks []int
}

// Anonymous reports whether f is a synthetic region rather than a
// symbol-table function.
func (f *Func) Anonymous() bool { return f.Sym.Name == "" }

// Analysis is the shared fact store of the passes: every pass writes its
// facts here exactly once, and facts are never mutated after their pass
// completes, so an Analysis is safe for concurrent readers. Build it with
// Analyze, which runs the base passes (cfg, stackdepth, liveness)
// eagerly; the heavier passes run on first demand (Regions, and deps
// under CheckpointSet).
type Analysis struct {
	Prog   *isa.Program
	Blocks []*Block
	Funcs  []*Func

	passState

	// blockOf maps instruction index -> block index.
	blockOf []int
	// funcOf maps instruction index -> func index.
	funcOf []int
	// reach marks blocks reachable from their function's entry (or from
	// the program entry for anonymous regions).
	reach []bool

	// depthIn[i] is the stack-depth state on entry to instruction i.
	depthIn []depthState
	// liveIn[b] is the register set live on entry to block b; liveOut[i]
	// the set live on exit from instruction i.
	liveIn, liveOut []RegSet

	// regions is the regions pass's fact; deps the deps pass's.
	regions *Regions
	deps    *Deps
}

// index converts a code address to an instruction index.
func (a *Analysis) index(addr uint64) (int, bool) {
	if addr < isa.CodeBase || addr >= a.Prog.CodeEnd() || (addr-isa.CodeBase)%isa.InstrBytes != 0 {
		return 0, false
	}
	return int((addr - isa.CodeBase) / isa.InstrBytes), true
}

// addr converts an instruction index to its code address.
func (a *Analysis) addr(i int) uint64 {
	return isa.CodeBase + uint64(i)*isa.InstrBytes
}

// FuncAt returns the analyzed function containing addr.
func (a *Analysis) FuncAt(addr uint64) (*Func, bool) {
	i, ok := a.index(addr)
	if !ok {
		return nil, false
	}
	return a.Funcs[a.funcOf[i]], true
}

// Analyze builds the CFG and runs the stack-depth and liveness dataflows
// (the base passes). It never fails: malformed flow (branches
// out of the code segment, fall-off ends) is recorded as block attributes
// and surfaced by Vet.
func Analyze(prog *isa.Program) *Analysis {
	a := &Analysis{Prog: prog}
	a.timed(passCFG, func() {
		a.buildFuncs()
		a.buildBlocks()
		a.markReachable()
	})
	a.timed(passStackDepth, a.computeDepths)
	a.timed(passLiveness, a.computeLiveness)
	return a
}

// buildFuncs partitions the code segment into functions: symbol-table
// functions first, then synthetic anonymous regions for any gaps.
func (a *Analysis) buildFuncs() {
	n := len(a.Prog.Instrs)
	a.funcOf = make([]int, n)
	for i := range a.funcOf {
		a.funcOf[i] = -1
	}
	for _, s := range a.Prog.Symbols {
		if s.Kind != isa.SymFunc {
			continue
		}
		f := &Func{Index: len(a.Funcs), Sym: s}
		a.Funcs = append(a.Funcs, f)
		start, ok := a.index(s.Addr)
		if !ok {
			continue
		}
		end := start + int(s.Size/isa.InstrBytes)
		if s.Size == 0 || end > n {
			end = n
		}
		for i := start; i < end && a.funcOf[i] == -1; i++ {
			a.funcOf[i] = f.Index
		}
	}
	// Cover the gaps with anonymous regions.
	for i := 0; i < n; {
		if a.funcOf[i] != -1 {
			i++
			continue
		}
		j := i
		for j < n && a.funcOf[j] == -1 {
			j++
		}
		f := &Func{
			Index: len(a.Funcs),
			Sym:   isa.Symbol{Kind: isa.SymFunc, Addr: a.addr(i), Size: uint64(j-i) * isa.InstrBytes},
		}
		a.Funcs = append(a.Funcs, f)
		for k := i; k < j; k++ {
			a.funcOf[k] = f.Index
		}
		i = j
	}
}

// buildBlocks finds leaders, materializes blocks and wires intra-function
// edges.
func (a *Analysis) buildBlocks() {
	n := len(a.Prog.Instrs)
	leader := make([]bool, n)
	mark := func(addr uint64) {
		if i, ok := a.index(addr); ok {
			leader[i] = true
		}
	}
	if n > 0 {
		leader[0] = true
	}
	mark(a.Prog.Entry)
	for _, f := range a.Funcs {
		mark(f.Sym.Addr)
	}
	for i, in := range a.Prog.Instrs {
		switch in.Op {
		case isa.JMP, isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
			mark(uint64(in.Imm))
			if i+1 < n {
				leader[i+1] = true
			}
		case isa.CALL:
			mark(uint64(in.Imm))
			// CALL does not end a block: control returns to the next
			// instruction. The target is a leader (function entry).
		case isa.HALT, isa.ABORT, isa.RET:
			if i+1 < n {
				leader[i+1] = true
			}
		default:
			// Straight-line instruction: no control-flow effect.
		}
		// Function boundaries always split blocks.
		if i+1 < n && a.funcOf[i+1] != a.funcOf[i] {
			leader[i+1] = true
		}
	}

	a.blockOf = make([]int, n)
	for i := 0; i < n; {
		j := i + 1
		for j < n && !leader[j] {
			j++
		}
		b := &Block{Index: len(a.Blocks), Start: a.addr(i), End: a.addr(j), Func: a.funcOf[i], first: i, last: j - 1}
		a.Blocks = append(a.Blocks, b)
		f := a.Funcs[b.Func]
		f.Blocks = append(f.Blocks, b.Index)
		for k := i; k < j; k++ {
			a.blockOf[k] = b.Index
		}
		i = j
	}

	edge := func(from *Block, toAddr uint64) {
		i, ok := a.index(toAddr)
		if !ok {
			from.Escapes = true // branch out of the code segment
			return
		}
		to := a.Blocks[a.blockOf[i]]
		if to.Func != from.Func {
			from.Escapes = true // cross-function branch: treat as an exit
			return
		}
		from.Succs = append(from.Succs, to.Index)
		to.Preds = append(to.Preds, from.Index)
	}

	for _, b := range a.Blocks {
		last := a.Prog.Instrs[b.last]
		switch last.Op {
		case isa.HALT, isa.ABORT, isa.RET:
			// No successors.
		case isa.JMP:
			edge(b, uint64(last.Imm))
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
			edge(b, uint64(last.Imm))
			a.fallthroughEdge(b)
		default:
			a.fallthroughEdge(b)
		}
	}
}

// fallthroughEdge connects b to the block at b.End, or marks b as falling
// off its function when no same-function block follows.
func (a *Analysis) fallthroughEdge(b *Block) {
	i := b.last + 1
	if i == len(a.funcOf) || a.funcOf[i] != b.Func {
		b.FallsOff = true
		return
	}
	to := a.Blocks[a.blockOf[i]]
	b.Succs = append(b.Succs, to.Index)
	to.Preds = append(to.Preds, b.Index)
}

// markReachable flood-fills each function's CFG from its entries.
func (a *Analysis) markReachable() {
	a.reach = make([]bool, len(a.Blocks))
	var roots []int
	for _, f := range a.Funcs {
		roots = append(roots, a.entries(f)...)
	}
	for _, bi := range roots {
		a.reach[bi] = true
	}
	a.solve(roots, func(bi int) (marked []int) {
		for _, s := range a.Blocks[bi].Succs {
			if !a.reach[s] {
				a.reach[s] = true
				marked = append(marked, s)
			}
		}
		return marked
	})
}

// String renders a compact CFG listing for debugging and letgo-vet -cfg.
func (a *Analysis) String() string {
	var out []byte
	for _, f := range a.Funcs {
		name := f.Sym.Name
		if name == "" {
			name = fmt.Sprintf("<anon@0x%x>", f.Sym.Addr)
		}
		out = fmt.Appendf(out, "func %s [0x%x,0x%x)\n", name, f.Sym.Addr, f.Sym.Addr+f.Sym.Size)
		for _, bi := range f.Blocks {
			b := a.Blocks[bi]
			out = fmt.Appendf(out, "  b%d [0x%x,0x%x) succs=%v", b.Index, b.Start, b.End, b.Succs)
			if b.FallsOff {
				out = fmt.Appendf(out, " falls-off")
			}
			if b.Escapes {
				out = fmt.Appendf(out, " escapes")
			}
			if !a.reach[b.Index] {
				out = fmt.Appendf(out, " unreachable")
			}
			out = append(out, '\n')
		}
	}
	return string(out)
}
