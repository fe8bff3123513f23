package lang

import (
	"github.com/letgo-hpc/letgo/internal/asm"
	"github.com/letgo-hpc/letgo/internal/isa"
)

// CompileToAsm compiles MiniC source to assembly text.
func CompileToAsm(src string) (string, error) {
	prog, err := Parse(src)
	if err != nil {
		return "", err
	}
	if err := Check(prog); err != nil {
		return "", err
	}
	Fold(prog)
	return Generate(prog)
}

// Compile compiles MiniC source all the way to a loadable program.
func Compile(src string) (*isa.Program, error) {
	text, err := CompileToAsm(src)
	if err != nil {
		return nil, err
	}
	return asm.Assemble(text)
}
