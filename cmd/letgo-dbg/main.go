// letgo-dbg is an interactive, gdb-flavoured debugger for programs on the
// simulated machine. It exposes the same control surface LetGo is built
// on: signal dispositions, breakpoints with ignore counts, register and
// memory inspection, single-stepping, and manual PC rewriting — so a
// LetGo repair can be performed by hand, command by command.
//
// Usage:
//
//	letgo-dbg -app LULESH
//	letgo-dbg prog.mc
//
// Commands: help, break, info, run, continue, step, regs, x, disas,
// handle, set, pc, letgo, quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"github.com/letgo-hpc/letgo/internal/cli"
)

func main() {
	appName := flag.String("app", "", "load a built-in benchmark app")
	flag.Parse()

	prog, _, err := cli.LoadProgram("letgo-dbg", *appName, flag.Args())
	if err != nil {
		cli.Fatal("letgo-dbg", err)
	}
	s, err := newSession(prog, os.Stdout)
	if err != nil {
		cli.Fatal("letgo-dbg", err)
	}
	fmt.Println("letgo-dbg: type 'help' for commands")
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("(ldb) ")
	for sc.Scan() {
		if quit := s.exec(sc.Text()); quit {
			return
		}
		fmt.Print("(ldb) ")
	}
}
