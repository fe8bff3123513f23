package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/asm"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/lang"
)

// LoadFile loads one program file by suffix: .s assembles, .mc compiles,
// .lgo loads an object image. Anything else is refused rather than
// guessed at.
func LoadFile(path string) (*isa.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var prog *isa.Program
	switch filepath.Ext(path) {
	case ".s":
		prog, err = asm.Assemble(string(data))
	case ".mc":
		prog, err = lang.Compile(string(data))
	case ".lgo":
		prog = &isa.Program{}
		err = prog.UnmarshalBinary(data)
	default:
		err = fmt.Errorf("unknown file type %q (want .s, .mc or .lgo)", path)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return prog, nil
}

// LoadProgram resolves a command's one input program: the built-in app
// -app names (returned too, for its acceptance check), or the single file
// argument.
func LoadProgram(tool, appName string, args []string) (*isa.Program, *apps.App, error) {
	if appName != "" {
		a, ok := apps.ByName(appName)
		if !ok {
			return nil, nil, fmt.Errorf("unknown app %q", appName)
		}
		p, err := a.Compile()
		return p, a, err
	}
	if len(args) != 1 {
		return nil, nil, fmt.Errorf("usage: %s [-app NAME | file.{mc,s,lgo}]", tool)
	}
	p, err := LoadFile(args[0])
	return p, nil, err
}

// SelectApps resolves an -apps value: 'iterative', 'all', 'hpl',
// 'extensions', or comma-separated app names.
func SelectApps(sel string) ([]*apps.App, error) {
	switch strings.ToLower(sel) {
	case "iterative":
		return apps.Iterative(), nil
	case "all":
		return apps.All(), nil
	case "extensions", "amg":
		return apps.Extensions(), nil
	case "hpl":
		sel = "HPL"
	}
	var out []*apps.App
	for _, name := range strings.Split(sel, ",") {
		a, ok := apps.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown app %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
