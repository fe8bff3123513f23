// letgo-asm assembles assembly text into program objects, or disassembles
// an object with -d.
//
// Usage:
//
//	letgo-asm [-o out.lgo] prog.s
//	letgo-asm -d prog.lgo
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/letgo-hpc/letgo/internal/asm"
	"github.com/letgo-hpc/letgo/internal/cli"
	"github.com/letgo-hpc/letgo/internal/isa"
)

func main() {
	disasm := flag.Bool("d", false, "disassemble an object file")
	out := flag.String("o", "", "output path (default: input with .lgo extension, or stdout for -d)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: letgo-asm [-d] [-o out] file")
		os.Exit(2)
	}
	in := flag.Arg(0)
	data, err := os.ReadFile(in)
	if err != nil {
		fatal(err)
	}

	if *disasm {
		var prog isa.Program
		if err := prog.UnmarshalBinary(data); err != nil {
			fatal(err)
		}
		text := asm.Disassemble(&prog)
		if *out == "" || *out == "-" {
			fmt.Print(text)
			return
		}
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			fatal(err)
		}
		return
	}

	prog, err := asm.Assemble(string(data))
	if err != nil {
		fatal(err)
	}
	obj, err := prog.MarshalBinary()
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = strings.TrimSuffix(in, ".s") + ".lgo"
	}
	if err := os.WriteFile(path, obj, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) { cli.Fatal("letgo-asm", err) }
