package analysis

import (
	"strings"

	"github.com/letgo-hpc/letgo/internal/isa"
)

// RegSet is a set of machine registers, one bit per register in each file.
type RegSet struct {
	Int, Float uint32
}

// allRegs has every register in both files set — the conservative live set
// at exits the analysis cannot see past (escaping or falling-off blocks).
var allRegs = RegSet{
	Int:   (1 << isa.NumIntRegs) - 1,
	Float: (1 << isa.NumFloatRegs) - 1,
}

func (s *RegSet) addInt(r isa.Reg)   { s.Int |= 1 << r }
func (s *RegSet) addFloat(r isa.Reg) { s.Float |= 1 << r }

// HasInt reports whether integer register r is in the set.
func (s RegSet) HasInt(r isa.Reg) bool { return s.Int&(1<<r) != 0 }

// HasFloat reports whether float register r is in the set.
func (s RegSet) HasFloat(r isa.Reg) bool { return s.Float&(1<<r) != 0 }

// Empty reports whether the set has no registers.
func (s RegSet) Empty() bool { return s.Int == 0 && s.Float == 0 }

func (s RegSet) union(o RegSet) RegSet {
	return RegSet{Int: s.Int | o.Int, Float: s.Float | o.Float}
}

func (s RegSet) minus(o RegSet) RegSet {
	return RegSet{Int: s.Int &^ o.Int, Float: s.Float &^ o.Float}
}

func (s RegSet) String() string {
	var names []string
	for r := isa.Reg(0); int(r) < isa.NumIntRegs; r++ {
		if s.HasInt(r) {
			names = append(names, isa.IntRegName(r))
		}
	}
	for r := isa.Reg(0); int(r) < isa.NumFloatRegs; r++ {
		if s.HasFloat(r) {
			names = append(names, isa.FloatRegName(r))
		}
	}
	return "{" + strings.Join(names, ",") + "}"
}

// callUses is the live-across-CALL set: the calling convention's argument
// registers (x1..x6, f1..f6) plus sp and bp. Everything else is dead at a
// call boundary as far as the caller is concerned; the callee's own uses
// are covered by analyzing the callee.
var callUses = func() RegSet {
	var s RegSet
	for r := isa.Reg(1); r <= 6; r++ {
		s.addInt(r)
		s.addFloat(r)
	}
	s.addInt(isa.SP)
	s.addInt(isa.BP)
	return s
}()

// retUses is what RET reads, and doubles as the function exit-live set:
// the return-value registers (x0, f0), sp (the return address load), and
// bp (callers assume it survived).
var retUses = func() RegSet {
	var s RegSet
	s.addInt(0)
	s.addFloat(0)
	s.addInt(isa.SP)
	s.addInt(isa.BP)
	return s
}()

// useDef returns the registers an instruction reads and writes. Sources
// index the float file when the opcode's FloatSrc flag says so (F2I reads
// float, I2F reads int — the flag already encodes both).
func useDef(in isa.Instruction) (use, def RegSet) {
	info := in.Info()
	src := func(r isa.Reg) {
		if info.FloatSrc {
			use.addFloat(r)
		} else {
			use.addInt(r)
		}
	}
	switch info.Fmt {
	case isa.FmtNone:
		if in.Op == isa.RET {
			use = retUses
			def.addInt(isa.SP)
		}
	case isa.FmtR:
		switch in.Op {
		case isa.PUSH:
			src(in.Rs1)
			use.addInt(isa.SP)
			def.addInt(isa.SP)
		case isa.POP:
			use.addInt(isa.SP)
			def.addInt(in.Rd)
			def.addInt(isa.SP)
		case isa.CYCLES:
			def.addInt(in.Rd)
		default: // PRINTI, PRINTF
			src(in.Rs1)
		}
	case isa.FmtRR:
		src(in.Rs1)
	case isa.FmtRRR:
		src(in.Rs1)
		src(in.Rs2)
	case isa.FmtRI:
		// Immediate loads: no register sources.
	case isa.FmtRRI:
		use.addInt(in.Rs1)
	case isa.FmtI:
		if in.Op == isa.CALL {
			use = callUses
			def.addInt(isa.SP)
		}
	case isa.FmtRRB:
		use.addInt(in.Rs1)
		use.addInt(in.Rs2)
	case isa.FmtMemLd:
		use.addInt(in.Rs1)
	case isa.FmtMemSt:
		use.addInt(in.Rs1)
		src(in.Rs2)
	default:
		// Unknown format: assume nothing, which is wrong in no direction
		// that matters (invalid opcodes never assemble or decode).
	}
	switch info.Dest {
	case isa.DestInt:
		def.addInt(in.Rd)
	case isa.DestFloat:
		def.addFloat(in.Rd)
	case isa.DestNone:
	}
	return use, def
}

// computeLiveness runs the backward liveness fixpoint per function.
func (a *Analysis) computeLiveness() {
	a.liveIn = make([]RegSet, len(a.Blocks))
	a.liveOut = make([]RegSet, len(a.Prog.Instrs))

	// exitLive is the live-out of a block with no intra-function
	// successors. RET's own use set (x0/f0/sp/bp) already encodes the
	// function exit contract and HALT/ABORT stop the machine, so a clean
	// exit contributes nothing; blocks that escape their function or fall
	// off its end lead somewhere the analysis cannot see, so everything
	// must be assumed live.
	exitLive := func(b *Block) RegSet {
		if b.FallsOff || b.Escapes {
			return allRegs
		}
		return RegSet{}
	}

	for _, f := range a.Funcs {
		// Seed every block: exit blocks establish the boundary condition.
		a.solve(f.Blocks, func(bi int) []int {
			b := a.Blocks[bi]
			live := exitLive(b)
			for _, si := range b.Succs {
				live = live.union(a.liveIn[si])
			}
			for i := b.last; i >= b.first; i-- {
				a.liveOut[i] = live
				use, def := useDef(a.Prog.Instrs[i])
				live = live.minus(def).union(use)
			}
			if live == a.liveIn[bi] {
				return nil
			}
			a.liveIn[bi] = live
			return b.Preds
		})
	}
}

// DestLiveAt reports whether the destination register of the instruction
// at addr is live after the instruction retires — i.e. whether a fault
// injected into that destination can propagate at all. ok is false when
// the instruction writes no register or addr is outside the code segment.
func (a *Analysis) DestLiveAt(addr uint64) (live, ok bool) {
	i, valid := a.index(addr)
	if !valid {
		return false, false
	}
	in := a.Prog.Instrs[i]
	switch in.Info().Dest {
	case isa.DestInt:
		return a.liveOut[i].HasInt(in.Rd), true
	case isa.DestFloat:
		return a.liveOut[i].HasFloat(in.Rd), true
	default:
		return false, false
	}
}
