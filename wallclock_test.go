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
	// The HTTP exporter's /healthz uptime and request timestamps are
	// readings about the host process, served to operators.
	"internal/obs/obshttp",
	// Command mains report wall-clock progress on stderr and supervise
	// real listeners and child processes.
	"cmd",
}

// goroutineExempt lists the directories whose code may start a goroutine.
// A simulation belongs to one goroutine (a simclock.Scheduler is not safe
// for concurrent use, and a second goroutine would interleave its events by
// host scheduling), so everything else runs on its caller's goroutine.
var goroutineExempt = []string{
	// The daemon serves HTTP beside the simulation loop; the server reads
	// the registry and journal, never a scheduler.
	"cmd/lifeguardd",
	// The HTTP exporter's server, which reads the same.
	"internal/obs/obshttp",
}

// wallClockFuncs are the time package's wall-clock entry points. Pure
// arithmetic (time.Duration, time.Second, ParseDuration, …) stays legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// TestNoWallClock is the repository's one wall-clock check. It parses every
// non-test Go file of the module outside testdata directories and fails on
// any call of a wall-clock function of package time outside wallClockExempt,
// and on any go statement outside goroutineExempt. Most such calls also
// break a determinism test, but one class only a static check sees: a
// wall-clock budget around a simulated loop changes the output only on a
// host slow enough to hit it. A goroutine that touches a scheduler is the
// other: it changes the output only when the host interleaves it badly.
func TestNoWallClock(t *testing.T) {
	exemptWallClock := exemptDirs(t, "wallClockExempt", wallClockExempt)
	exemptGoroutine := exemptDirs(t, "goroutineExempt", goroutineExempt)
	fset := token.NewFileSet()
	scanned := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module (benchmark/)
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		name := timeImportName(f)
		checkClock := name != "" && !exemptWallClock(dir)
		checkGo := !exemptGoroutine(dir)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); checkClock && ok && id.Name == name && wallClockFuncs[n.Sel.Name] {
					t.Errorf("%s: wall-clock call time.%s; simulator code must use internal/simclock", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.GoStmt:
				if checkGo {
					t.Errorf("%s: go statement; only %v may start goroutines", fset.Position(n.Pos()), goroutineExempt)
				}
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

// exemptDirs checks that every entry of the list named list is a directory
// of this module and returns whether a directory lies under one of them.
func exemptDirs(t *testing.T, list string, dirs []string) func(dir string) bool {
	t.Helper()
	for _, dir := range dirs {
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("exempt path %q is not a directory of this module; drop it from %s", dir, list)
		}
	}
	return func(dir string) bool {
		for _, e := range dirs {
			if dir == e || strings.HasPrefix(dir, e+"/") {
				return true
			}
		}
		return false
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
