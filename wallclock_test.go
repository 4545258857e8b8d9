package lifeguard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// wallClockExempt lists the directories, relative to the module root, whose
// code may read the host clock. A result read from the host clock depends on
// the host's speed, so everything else must run on internal/simclock.
var wallClockExempt = []string{
	// The trial runner's per-trial timeout is a watchdog against hung
	// simulations; trials stay on the virtual clock and never see it.
	"internal/runner",
	// The HTTP exporter's /healthz uptime and request timestamps are
	// readings about the host process, served to operators.
	"internal/obs/obshttp",
	// Command mains report wall-clock progress on stderr and supervise
	// real listeners and child processes.
	"cmd",
	// The benchmark measures host time by design; it is its own module.
	"benchmark",
}

// wallClockFuncs are the time package's wall-clock entry points. Pure
// arithmetic (time.Duration, time.Second, ParseDuration, …) stays legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// TestNoWallClock is the repository's one wall-clock check. It parses every
// non-test Go file outside wallClockExempt and testdata directories and
// fails on any call of a wall-clock function of package time. Most such
// calls also break a determinism test, but one class only a static check
// sees: a wall-clock budget around a simulated loop changes the output only
// on a host slow enough to hit it.
func TestNoWallClock(t *testing.T) {
	for _, dir := range wallClockExempt {
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("exempt path %q is not a directory of this module; drop it from wallClockExempt", dir)
		}
	}
	exempt := make(map[string]bool, len(wallClockExempt))
	for _, dir := range wallClockExempt {
		exempt[dir] = true
	}
	fset := token.NewFileSet()
	scanned := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || exempt[filepath.ToSlash(path)]) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		scanned++
		name := timeImportName(f)
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == name && wallClockFuncs[sel.Sel.Name] {
				t.Errorf("%s: wall-clock call time.%s; simulator code must use internal/simclock", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned == 0 {
		t.Fatal("no Go sources scanned; the test must run from the module root")
	}
}

// timeImportName returns the name under which f imports package time, or ""
// if it does not.
func timeImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p != "time" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "time"
	}
	return ""
}
