// Package pseudoop is a fixture for opcheck's pseudo-op test: Dispatch is
// marked //opcheck:exhaustive, enumerates every isa.Op, and carries one
// more arm for a package-local pseudo-op numbered past the real opcodes —
// the shape of vm.driveFast's dispatch table, whose planted-breakpoint arm
// exists only in the vm's private instruction streams. opcheck must accept
// the extra arm, and must still flag the switch when a real opcode is
// dropped from it (the test vets a copy of this file with one removed).
// The package is under testdata, so ./... never builds it; only the test
// references it by explicit path.
package pseudoop

import "github.com/letgo-hpc/letgo/internal/isa"

// opPlanted is not an isa.Op constant of package isa: opcheck neither
// requires nor rejects it.
const opPlanted = isa.Op(isa.NumOps)

// Dispatch names the group an opcode belongs to.
func Dispatch(op isa.Op) string {
	//opcheck:exhaustive
	switch op {
	case isa.NOP, isa.HALT, isa.ABORT:
		return "control"
	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR:
		return "alu"
	case isa.ADDI, isa.MULI, isa.ANDI:
		return "alu-imm"
	case isa.MOV, isa.NEG, isa.NOT, isa.LI:
		return "move"
	case isa.SEQ, isa.SNE, isa.SLT, isa.SLE, isa.FEQ, isa.FNE, isa.FLT, isa.FLE:
		return "compare"
	case isa.LD, isa.ST, isa.FLD, isa.FST:
		return "memory"
	case isa.PUSH, isa.POP, isa.CALL, isa.RET:
		return "stack"
	case isa.JMP, isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		return "branch"
	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FMIN, isa.FMAX:
		return "float-alu"
	case isa.FMOV, isa.FNEG, isa.FABS, isa.FSQRT, isa.FLI, isa.I2F, isa.F2I:
		return "float-move"
	case isa.PRINTI, isa.PRINTF, isa.CYCLES:
		return "host"
	case opPlanted:
		return "planted"
	}
	return "invalid"
}
