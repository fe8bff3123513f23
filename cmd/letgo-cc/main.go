// letgo-cc compiles MiniC source files into program objects for the
// simulated machine, or emits the generated assembly with -S.
//
// Usage:
//
//	letgo-cc [-S] [-o out] prog.mc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/letgo-hpc/letgo/internal/cli"
	"github.com/letgo-hpc/letgo/internal/lang"
)

func main() {
	emitAsm := flag.Bool("S", false, "emit assembly text instead of an object file")
	out := flag.String("o", "", "output path (default: input with .lgo/.s extension)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: letgo-cc [-S] [-o out] prog.mc")
		os.Exit(2)
	}
	in := flag.Arg(0)
	src, err := os.ReadFile(in)
	if err != nil {
		fatal(err)
	}

	base := strings.TrimSuffix(in, ".mc")
	if *emitAsm {
		text, err := lang.CompileToAsm(string(src))
		if err != nil {
			fatal(err)
		}
		path := *out
		if path == "" {
			path = base + ".s"
		}
		if err := writeOut(path, []byte(text)); err != nil {
			fatal(err)
		}
		return
	}

	prog, err := lang.Compile(string(src))
	if err != nil {
		fatal(err)
	}
	obj, err := prog.MarshalBinary()
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = base + ".lgo"
	}
	if err := writeOut(path, obj); err != nil {
		fatal(err)
	}
}

func writeOut(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func fatal(err error) { cli.Fatal("letgo-cc", err) }
