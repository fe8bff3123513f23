package analysis

import (
	"fmt"

	"github.com/letgo-hpc/letgo/internal/isa"
)

// FallbackFrameBytes is the frame bound Heuristic II assumes when neither
// the stack-depth dataflow nor the prologue scan can derive one (opaque
// writes to sp/bp, unreachable code, or code outside any function). It is
// deliberately generous: wild single-bit corruption of sp or bp moves the
// register by at least one power of two, usually far more than a page, so
// a loose bound still catches it while never tripping on a legitimate
// deep frame.
const FallbackFrameBytes = 4096

// widenLimit caps how many times a block's depth interval may be re-joined
// before the analysis widens it to Top. Stack deltas are compile-time
// constants, so balanced programs converge in a pass or two; only an
// unbalanced push inside a loop keeps growing, and Top is the honest
// answer there.
const widenLimit = 8

// Interval is an inclusive range of byte offsets. Top represents "any
// value" (the analysis lost track); the zero Interval is the exact point 0.
type Interval struct {
	Lo, Hi int64
	Top    bool
}

// top is the unknown interval.
var top = Interval{Top: true}

// point returns the degenerate interval [v,v].
func point(v int64) Interval { return Interval{Lo: v, Hi: v} }

// Exact reports whether the interval is a single known value.
func (iv Interval) Exact() (int64, bool) {
	if iv.Top || iv.Lo != iv.Hi {
		return 0, false
	}
	return iv.Lo, true
}

// add shifts the interval by a constant.
func (iv Interval) add(d int64) Interval {
	if iv.Top {
		return top
	}
	return Interval{Lo: iv.Lo + d, Hi: iv.Hi + d}
}

// join is the interval hull (the meet-over-paths operator).
func (iv Interval) join(o Interval) Interval {
	if iv.Top || o.Top {
		return top
	}
	if o.Lo < iv.Lo {
		iv.Lo = o.Lo
	}
	if o.Hi > iv.Hi {
		iv.Hi = o.Hi
	}
	return iv
}

func (iv Interval) eq(o Interval) bool {
	return iv.Top == o.Top && (iv.Top || (iv.Lo == o.Lo && iv.Hi == o.Hi))
}

func (iv Interval) String() string {
	if iv.Top {
		return "⊤"
	}
	if iv.Lo == iv.Hi {
		return fmt.Sprintf("%d", iv.Lo)
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}

// depthState tracks, at one program point, how far sp and bp sit below the
// function-entry stack pointer, in bytes. Depth 0 is the entry sp (which
// points at the return address the caller pushed); PUSH increases depth by
// 8. reached distinguishes bottom (never executed on any discovered path)
// from a computed state.
type depthState struct {
	sp, bp  Interval
	reached bool
}

func (s depthState) join(o depthState) depthState {
	if !s.reached {
		return o
	}
	if !o.reached {
		return s
	}
	return depthState{sp: s.sp.join(o.sp), bp: s.bp.join(o.bp), reached: true}
}

func (s depthState) eq(o depthState) bool {
	return s.reached == o.reached && s.sp.eq(o.sp) && s.bp.eq(o.bp)
}

// entryDepth is the state at a function entry: sp exactly at the return
// address, bp an unknown caller register.
func entryDepth() depthState {
	return depthState{sp: point(0), bp: top, reached: true}
}

// depthStep is the dataflow transfer function for one instruction.
func depthStep(st depthState, in isa.Instruction) depthState {
	switch in.Op {
	case isa.PUSH:
		st.sp = st.sp.add(8)
	case isa.POP:
		st.sp = st.sp.add(-8)
		switch in.Rd {
		case isa.SP:
			st.sp = top // pop into sp: value loaded from memory
		case isa.BP:
			st.bp = top // restores the caller's bp (epilogue)
		}
	case isa.CALL:
		// The callee is assumed balanced: it consumes the return address
		// CALL pushes and restores sp before RET. Vet checks that every
		// function actually is balanced.
	case isa.RET:
		st.sp = st.sp.add(-8)
	case isa.MOV:
		switch in.Rd {
		case isa.SP:
			st.sp = st.regDepth(in.Rs1)
		case isa.BP:
			st.bp = st.regDepth(in.Rs1)
		}
	case isa.ADDI:
		// addi rd, rs1, imm: rd = rs1 + imm, so the depth (distance below
		// entry sp) shifts by -imm.
		switch in.Rd {
		case isa.SP:
			st.sp = st.regDepth(in.Rs1).add(-in.Imm)
		case isa.BP:
			st.bp = st.regDepth(in.Rs1).add(-in.Imm)
		}
	default:
		// Any other write to sp or bp is opaque.
		if in.Info().Dest == isa.DestInt {
			switch in.Rd {
			case isa.SP:
				st.sp = top
			case isa.BP:
				st.bp = top
			}
		}
	}
	return st
}

// regDepth returns the depth interval of an integer register as a stack
// offset, or Top for registers the analysis does not track.
func (s depthState) regDepth(r isa.Reg) Interval {
	switch r {
	case isa.SP:
		return s.sp
	case isa.BP:
		return s.bp
	}
	return top
}

// computeDepths runs the forward stack-depth fixpoint over every function.
func (a *Analysis) computeDepths() {
	a.depthIn = make([]depthState, len(a.Prog.Instrs))
	blockIn := make([]depthState, len(a.Blocks))
	joins := make([]int, len(a.Blocks))
	visit := func(bi int) (changed []int) {
		b := a.Blocks[bi]
		st := blockIn[bi]
		for i := b.first; i <= b.last; i++ {
			a.depthIn[i] = st
			st = depthStep(st, a.Prog.Instrs[i])
		}
		for _, si := range b.Succs {
			joined := blockIn[si].join(st)
			if joined.eq(blockIn[si]) {
				continue
			}
			joins[si]++
			if joins[si] > widenLimit {
				// Widen: the interval keeps growing (unbalanced stack
				// motion in a loop). Give up precisely.
				joined = depthState{sp: top, bp: top, reached: true}
			}
			blockIn[si] = joined
			changed = append(changed, si)
		}
		return changed
	}
	for _, f := range a.Funcs {
		seeds := a.entries(f)
		for _, bi := range seeds {
			blockIn[bi] = entryDepth()
		}
		a.solve(seeds, visit)
	}
}

// DepthAt returns the sp and bp depth intervals (bytes below the
// function-entry stack pointer) on entry to the instruction at addr. ok is
// false outside the code segment or in code the dataflow never reached.
func (a *Analysis) DepthAt(addr uint64) (sp, bp Interval, ok bool) {
	i, valid := a.index(addr)
	if !valid || !a.depthIn[i].reached {
		return top, top, false
	}
	return a.depthIn[i].sp, a.depthIn[i].bp, true
}

// GapBoundAt returns the largest legitimate bp-sp gap (in bytes) at addr,
// per the stack-depth dataflow: with depth measured downward,
// bp - sp = depth(sp) - depth(bp). ok is false when either register's
// depth is unknown at that point, or the computed bound is negative
// (bp statically below sp, e.g. mid-epilogue after `pop bp`).
func (a *Analysis) GapBoundAt(addr uint64) (bound uint64, ok bool) {
	sp, bp, reached := a.DepthAt(addr)
	if !reached || sp.Top || bp.Top {
		return 0, false
	}
	gap := sp.Hi - bp.Lo
	if gap < 0 {
		return 0, false
	}
	return uint64(gap), true
}

// PrologueFrame recovers the frame size of the function containing addr by
// scanning its entry for the paper's Listing-1 prologue
//
//	push bp
//	mov  bp, sp
//	addi sp, sp, -N
//
// A function that carries the first two instructions but allocates no
// locals (no ADDI, or the function is only two instructions long) reports
// a valid zero-size frame. Functions without the prologue report ok=false.
func (a *Analysis) PrologueFrame(addr uint64) (uint64, bool) {
	f, ok := a.FuncAt(addr)
	if !ok {
		return 0, false
	}
	fn := f.Sym
	in0, ok0 := a.Prog.InstrAt(fn.Addr)
	in1, ok1 := a.Prog.InstrAt(fn.Addr + isa.InstrBytes)
	if !ok0 || !ok1 {
		return 0, false
	}
	if in0.Op != isa.PUSH || in0.Rs1 != isa.BP {
		return 0, false
	}
	if in1.Op != isa.MOV || in1.Rd != isa.BP || in1.Rs1 != isa.SP {
		return 0, false
	}
	in2, ok2 := a.Prog.InstrAt(fn.Addr + 2*isa.InstrBytes)
	if !ok2 || in2.Op != isa.ADDI {
		// push bp; mov bp, sp and nothing more: a valid zero-size frame
		// (this includes two-instruction functions at the very end of the
		// code segment, which the old triple-read scan reported as
		// unanalyzable).
		return 0, true
	}
	if in2.Rd != isa.SP || in2.Rs1 != isa.SP || in2.Imm >= 0 {
		return 0, false
	}
	return uint64(-in2.Imm), true
}

// BoundSource says where a Heuristic-II frame bound came from.
type BoundSource uint8

// Frame-bound sources, from most to least precise.
const (
	BoundDataflow BoundSource = iota // per-PC stack-depth interval
	BoundPrologue                    // Listing-1 prologue scan
	BoundFallback                    // FallbackFrameBytes
)

func (s BoundSource) String() string {
	switch s {
	case BoundDataflow:
		return "dataflow"
	case BoundPrologue:
		return "prologue"
	case BoundFallback:
		return "fallback"
	}
	return fmt.Sprintf("boundsource?%d", uint8(s))
}

// FrameBoundAt returns the bound Heuristic II should use on the
// legitimate bp-sp gap at addr, and where the bound came from: the exact
// per-PC dataflow bound when available, else the prologue-scan frame size,
// else FallbackFrameBytes.
func (a *Analysis) FrameBoundAt(addr uint64) (uint64, BoundSource) {
	if g, ok := a.GapBoundAt(addr); ok {
		return g, BoundDataflow
	}
	if n, ok := a.PrologueFrame(addr); ok {
		return n, BoundPrologue
	}
	return FallbackFrameBytes, BoundFallback
}
