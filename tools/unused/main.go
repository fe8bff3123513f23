// unused is the shrink ratchet (go run ./tools/unused, from the repository
// root): it lists package-level identifiers and methods declared in non-test
// files under internal/ that (a) are exported but referenced from no other
// package, or (b) are referenced only from _test.go files, and fails unless
// that list equals tools/unused/allow.txt. A finding that is not allow-listed
// is new dead code; an allow-listed line that is no longer a finding must
// go; so the list only shrinks.
//
// Matching is by name (go/parser and go/ast only): pkg.Name through the
// file's imports, a bare Name inside the declaring package, any .Name
// selector for a method. A shadowing local or another type's method of the
// same name counts as a reference, so the tool can miss dead code but never
// reports code that has one. Methods reached only through a standard-library
// interface (String, Error) are findings; allow.txt carries them as such.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// decl is one package-level identifier or method and who refers to it.
type decl struct {
	key     string // "pkg.Name" or "pkg.Type.Name", pkg relative to internal/
	dir     string // declaring package directory, slash-separated
	prod    bool   // referenced from a non-test file
	test    bool   // referenced from a _test.go file
	outside bool   // referenced from another directory
}

type file struct {
	dir  string // slash-separated, relative to the root
	test bool
	ast  *ast.File
}

func (d *decl) mark(f *file) {
	d.test = d.test || f.test
	d.prod = d.prod || !f.test
	d.outside = d.outside || f.dir != d.dir
}

// findings parses every .go file under root and returns key -> reason.
func findings(root string) (map[string]string, error) {
	var files []*file
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && p != root && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")):
			return filepath.SkipDir
		case e.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p))
		files = append(files, &file{filepath.ToSlash(rel), strings.HasSuffix(p, "_test.go"), parsed})
		return nil
	})
	if err != nil {
		return nil, err
	}

	var all []*decl
	idents := map[string]*decl{}      // "dir.Name" -> package-level decl
	methods := map[string][]*decl{}   // name -> methods of any type
	declared := map[*ast.Ident]bool{} // declaring occurrences, not references
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(f.dir, "internal/") + "."
		add := func(id *ast.Ident) {
			d := &decl{key: pkg + id.Name, dir: f.dir}
			all, declared[id], idents[f.dir+"."+id.Name] = append(all, d), true, d
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if t, ok := recv.(*ast.Ident); ok {
					m := &decl{key: pkg + t.Name + "." + d.Name.Name, dir: f.dir}
					all, methods[d.Name.Name] = append(all, m), append(methods[d.Name.Name], m)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
	}

	for _, f := range files {
		imports := map[string]string{} // local name -> internal/ directory
		for _, im := range f.ast.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			if i := strings.Index(p, "/internal/"); i >= 0 {
				name := p[strings.LastIndex(p, "/")+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = p[i+1:]
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if d := idents[imports[x.Name]+"."+n.Sel.Name]; d != nil {
						d.mark(f)
					}
				}
				for _, d := range methods[n.Sel.Name] {
					d.mark(f)
				}
				ast.Inspect(n.X, visit) // Sel itself is not a bare reference
				return false
			case *ast.Ident:
				if d := idents[f.dir+"."+n.Name]; d != nil && !declared[n] {
					d.mark(f)
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	out := map[string]string{}
	for _, d := range all {
		switch name := d.key[strings.LastIndex(d.key, ".")+1:]; {
		case !d.prod && d.test:
			out[d.key] = "referenced only from _test.go files"
		case ast.IsExported(name) && !d.outside:
			out[d.key] = "exported, no reference outside its package"
		}
	}
	return out, nil
}

// check reports to w how the findings under root and root's allow.txt (one
// "key  # reason" per line) differ, and returns the process exit code.
func check(root string, w io.Writer) int {
	allow, err := os.ReadFile(filepath.Join(root, "tools", "unused", "allow.txt"))
	var found map[string]string
	if err == nil {
		found, err = findings(root)
	}
	if err != nil {
		fmt.Fprintln(w, "unused:", err)
		return 2
	}
	var drift []string
	for _, line := range strings.Split(string(allow), "\n") {
		key, _, _ := strings.Cut(line, "#")
		if key = strings.TrimSpace(key); key == "" {
			continue
		}
		if _, ok := found[key]; !ok {
			drift = append(drift, key+"\tno longer a finding: delete its allow.txt line")
		}
		delete(found, key)
	}
	for key, reason := range found {
		drift = append(drift, key+"\t"+reason+": use it, delete it, or allow-list it with a reason")
	}
	sort.Strings(drift)
	for _, line := range drift {
		fmt.Fprintln(w, "unused:", line)
	}
	return min(len(drift), 1)
}

func main() { os.Exit(check(".", os.Stderr)) }
