package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tree writes a module with one internal package: Used has a caller in
// cmd/, T.M is reached by a .M selector, Dead has no reference, TestOnly
// is referenced from a _test.go file alone, and local is unexported.
func tree(t *testing.T, allow string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range map[string]string{
		"internal/a/a.go": `package a
func Used() { local() }
func Dead() {}
func TestOnly() {}
func local() {}
type T struct{}
func (T) M() {}
`,
		"internal/a/a_test.go": "package a\nfunc init() { TestOnly() }\n",
		"cmd/x/main.go": `package main
import "example.com/m/internal/a"
func main() { a.Used(); a.T{}.M() }
`,
		"tools/unused/allow.txt": allow,
	} {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestRatchet(t *testing.T) {
	for _, tc := range []struct {
		name, allow string
		code        int
		says        []string // substrings of the report
	}{
		{"in sync", "# header\na.Dead  # kept\na.TestOnly  # seam\n", 0, nil},
		{"new dead code", "a.TestOnly  # seam\n", 1, []string{"a.Dead\texported, no reference outside its package"}},
		{"new test-only code", "a.Dead  # kept\n", 1, []string{"a.TestOnly\treferenced only from _test.go files"}},
		{"allow-listed identifier gained a caller", "a.Dead  # kept\na.TestOnly  # seam\na.Used  # was dead\n", 1,
			[]string{"a.Used\tno longer a finding"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if code := check(tree(t, tc.allow), &out); code != tc.code {
				t.Errorf("exit code %d, want %d; report:\n%s", code, tc.code, out.String())
			}
			for _, s := range tc.says {
				if !strings.Contains(out.String(), s) {
					t.Errorf("report lacks %q:\n%s", s, out.String())
				}
			}
			for _, live := range []string{"a.T.M", "a.local", "a.T\t"} {
				if strings.Contains(out.String(), live) {
					t.Errorf("report names live code %q:\n%s", live, out.String())
				}
			}
		})
	}
}

// TestRepositoryAllowListInSync is the ratchet itself, so that plain
// `go test ./...` holds it and not only the CI step.
func TestRepositoryAllowListInSync(t *testing.T) {
	var out strings.Builder
	if code := check(filepath.Join("..", ".."), &out); code != 0 {
		t.Errorf("go run ./tools/unused would exit %d:\n%s", code, out.String())
	}
}
