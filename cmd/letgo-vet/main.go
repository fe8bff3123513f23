// letgo-vet lints assembled or compiled programs using the passes of
// internal/analysis: unreachable blocks, execution falling
// off a function's end, misaligned memory offsets, reads of never-written
// registers, unbalanced push/pop along any path, calls into non-function
// addresses, branches out of the code segment, writes to regions that are
// never read back, and acceptance outputs that are never initialized
// (-apps targets declare their acceptance globals).
//
// Usage:
//
//	letgo-vet prog.s other.mc image.lgo     # lint files
//	letgo-vet -apps all                     # lint the built-in benchmarks
//	letgo-vet -embedded examples            # lint MiniC embedded in Go files
//	letgo-vet -cfg prog.s                   # dump the CFG instead
//	letgo-vet -state -apps all              # print derived checkpoint sets
//	letgo-vet -passes                       # list the analysis passes
//
// Exit-code contract, identical across every -format:
//
//	0  all targets clean
//	1  at least one finding reported, or an operational error
//	2  usage error (nothing to lint, unknown flag)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"github.com/letgo-hpc/letgo/internal/analysis"
	"github.com/letgo-hpc/letgo/internal/cli"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/lang"
)

// target is one named program to lint. outputs carries the target's
// acceptance-checked globals when known (-apps), enabling the
// dependency-backed checks (uninit-output) and -state.
type target struct {
	name    string
	prog    *isa.Program
	outputs []string
}

// finding is the JSON view of one diagnostic.
type finding struct {
	Program string `json:"program"`
	Addr    string `json:"addr"`
	Func    string `json:"func"`
	Check   string `json:"check"`
	Msg     string `json:"msg"`
}

func main() {
	appSel := flag.String("apps", "", "lint built-in benchmark apps: comma-separated names, or 'all'")
	embedded := flag.String("embedded", "", "lint MiniC programs embedded as string constants in Go files under this directory")
	format := flag.String("format", "text", "output format: text or json")
	dumpCFG := flag.Bool("cfg", false, "dump the control-flow graph instead of linting")
	dumpState := flag.Bool("state", false, "print the derived checkpoint state set of each target that declares acceptance globals, instead of linting")
	listPasses := flag.Bool("passes", false, "list the analysis passes and exit")
	flag.Parse()

	if *listPasses {
		for _, p := range analysis.Passes() {
			fmt.Printf("%-12s %s\n", p.Name, p.Doc)
		}
		return
	}

	if *format != "text" && *format != "json" {
		fatal(fmt.Errorf("unknown format %q (want text or json)", *format))
	}

	var targets []target
	if *appSel != "" {
		ts, err := appTargets(*appSel)
		if err != nil {
			fatal(err)
		}
		targets = append(targets, ts...)
	}
	if *embedded != "" {
		ts, err := embeddedTargets(*embedded)
		if err != nil {
			fatal(err)
		}
		targets = append(targets, ts...)
	}
	for _, path := range flag.Args() {
		prog, err := cli.LoadFile(path)
		if err != nil {
			fatal(err)
		}
		targets = append(targets, target{name: path, prog: prog})
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "letgo-vet: nothing to lint (give files, -apps or -embedded)")
		flag.Usage()
		os.Exit(2)
	}

	var all []finding
	for _, tg := range targets {
		an := analysis.Analyze(tg.prog)
		if *dumpCFG {
			fmt.Printf("# %s\n%s", tg.name, an)
			continue
		}
		if *dumpState {
			if len(tg.outputs) == 0 {
				continue
			}
			ss, err := an.CheckpointSet(tg.outputs)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("# %s\n%s", tg.name, ss.Describe())
			continue
		}
		fs := an.Vet()
		if len(tg.outputs) > 0 {
			ofs, err := an.VetOutputs(tg.outputs)
			if err != nil {
				fatal(err)
			}
			fs = append(fs, ofs...)
		}
		for _, f := range fs {
			all = append(all, finding{
				Program: tg.name,
				Addr:    fmt.Sprintf("0x%x", f.Addr),
				Func:    f.Func,
				Check:   string(f.Check),
				Msg:     f.Msg,
			})
		}
	}
	if *dumpCFG || *dumpState {
		return
	}

	switch *format {
	case "json":
		if all == nil {
			all = []finding{} // encode a clean run as [], not null
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fatal(err)
		}
	default:
		for _, f := range all {
			where := f.Func
			if where == "" {
				where = "<anon>"
			}
			fmt.Printf("%s: %s (%s): %s: %s\n", f.Program, f.Addr, where, f.Check, f.Msg)
		}
		if len(all) == 0 {
			fmt.Printf("letgo-vet: %d program(s) clean\n", len(targets))
		}
	}
	// The exit code depends only on the findings, never on the format:
	// -format json exits 1 on findings exactly like the text renderer.
	if len(all) > 0 {
		os.Exit(1)
	}
}

// appTargets resolves -apps into compiled benchmark programs.
func appTargets(sel string) ([]target, error) {
	list, err := cli.SelectApps(sel)
	if err != nil {
		return nil, err
	}
	var out []target
	for _, a := range list {
		p, err := a.Compile()
		if err != nil {
			return nil, err
		}
		out = append(out, target{name: a.Name, prog: p, outputs: a.AcceptanceGlobals()})
	}
	return out, nil
}

// embeddedTargets walks a directory tree for Go files and compiles every
// string constant that looks like a MiniC program (contains "func main").
// This lints the programs the examples embed without duplicating their
// sources.
func embeddedTargets(dir string) ([]target, error) {
	var out []target
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		srcs, ferr := embeddedMiniC(path)
		if ferr != nil {
			return ferr
		}
		for name, src := range srcs {
			prog, cerr := lang.Compile(src)
			if cerr != nil {
				return fmt.Errorf("%s: embedded program %s: %w", path, name, cerr)
			}
			out = append(out, target{name: path + "#" + name, prog: prog})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no embedded MiniC programs found under %s", dir)
	}
	return out, nil
}

// embeddedMiniC extracts candidate MiniC sources from one Go file: string
// literals containing a MiniC main function.
func embeddedMiniC(path string) (map[string]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		lit, ok := node.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
			return true
		}
		src := strings.Trim(lit.Value, "`")
		if !strings.Contains(src, "func main") {
			return true
		}
		n++
		out[fmt.Sprintf("prog%d", n)] = src
		return true
	})
	return out, nil
}

func fatal(err error) { cli.Fatal("letgo-vet", err) }
