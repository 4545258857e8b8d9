// Package analysistest runs a lglint analyzer over packages stored under a
// testdata directory and checks its diagnostics against expectations written
// in the source, mirroring golang.org/x/tools/go/analysis/analysistest:
//
//	x := time.Now() // want `forbidden call to time\.Now`
//
// An expectation comment starts with the word "want" followed by one or more
// quoted regular expressions (double- or back-quoted); each must match
// exactly one diagnostic reported on that line, and every diagnostic must be
// matched. A quoted regexp may carry a column prefix — `want 12:"re"` — in
// which case the diagnostic must also start at that column. /* want `...` */
// block comments work too, which is how a line that already carries a
// //-directive states its expectation.
//
// Testdata packages live at <dir>/testdata/src/<name>/*.go and may import
// the standard library plus sibling testdata packages: an import path that
// names a directory under the same testdata/src root is loaded from source,
// analyzed first so its facts are available, and only then is the importing
// package checked — the harness-level mirror of the vet driver's
// package-DAG fact flow. Standard-library type information comes from
// `go list -export`, i.e. the toolchain's own export data, so tests run
// offline and agree exactly with what the vet driver sees.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lifeguard/internal/analysis"
)

// Run applies the analyzer to each named package under dir/testdata/src and
// reports expectation mismatches via t.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	root := filepath.Join(dir, "testdata", "src")
	for _, pkg := range pkgs {
		l := &loader{root: root, analyzer: a, facts: analysis.NewFactSet(), loaded: map[string]*loadedPkg{}}
		p, err := l.load(pkg)
		if err != nil {
			t.Fatalf("loading %s: %v", pkg, err)
		}
		diags, err := analysis.Run([]*analysis.Analyzer{a}, l.fset(), p.files, p.pkg, p.info, l.facts)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkg, err)
		}
		checkExpectations(t, l.fset(), p.files, diags)
	}
}

// loadedPkg is one typechecked testdata package.
type loadedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader resolves testdata packages from source (running the analyzer on
// each dependency so facts accumulate) and everything else from toolchain
// export data.
type loader struct {
	root     string
	analyzer *analysis.Analyzer
	facts    *analysis.FactSet
	loaded   map[string]*loadedPkg

	fsetOnce *token.FileSet
	exports  map[string]string // import path → export-data file
	gc       types.Importer
	loading  []string // cycle detection, in order
}

func (l *loader) fset() *token.FileSet {
	if l.fsetOnce == nil {
		l.fsetOnce = token.NewFileSet()
	}
	return l.fsetOnce
}

// load parses, typechecks, and (for dependencies) fact-analyzes the
// testdata package at root/<path>.
func (l *loader) load(path string) (*loadedPkg, error) {
	if p, ok := l.loaded[path]; ok {
		return p, nil
	}
	for _, in := range l.loading {
		if in == path {
			return nil, fmt.Errorf("import cycle through testdata package %q", path)
		}
	}
	l.loading = append(l.loading, path)
	defer func() { l.loading = l.loading[:len(l.loading)-1] }()

	dir := filepath.Join(l.root, path)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s: %v", dir, err)
	}
	sort.Strings(names)

	var files []*ast.File
	imports := map[string]bool{}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset(), name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", name, err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				imports[p] = true
			}
		}
	}

	// Split imports: testdata-local siblings load from source, the rest
	// resolve through export data.
	var stdlib []string
	for p := range imports {
		if !l.isLocal(p) {
			stdlib = append(stdlib, p)
		}
	}
	sort.Strings(stdlib) // map iteration order must not leak into `go list` argv
	if err := l.ensureExports(stdlib); err != nil {
		return nil, err
	}

	if l.gc == nil {
		l.gc = importer.ForCompiler(l.fset(), "gc", func(path string) (io.ReadCloser, error) {
			file, ok := l.exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q (testdata packages may import only the standard library and sibling testdata packages)", path)
			}
			return os.Open(file)
		})
	}
	imp := importerFunc(func(p string) (*types.Package, error) {
		if l.isLocal(p) {
			dep, err := l.load(p)
			if err != nil {
				return nil, err
			}
			return dep.pkg, nil
		}
		return l.gc.Import(p)
	})

	pkg, info, err := analysis.TypecheckImporter(l.fset(), files, path, "", imp)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	p := &loadedPkg{files: files, pkg: pkg, info: info}
	l.loaded[path] = p

	// Dependency packages get a fact-gathering pass; their diagnostics are
	// judged only when the package is itself named in Run.
	if len(l.loading) > 1 {
		if _, err := analysis.Run([]*analysis.Analyzer{l.analyzer}, l.fset(), files, pkg, info, l.facts); err != nil {
			return nil, fmt.Errorf("fact pass over %s: %v", path, err)
		}
	}
	return p, nil
}

// isLocal reports whether import path p names a sibling testdata package.
func (l *loader) isLocal(p string) bool {
	if p == "unsafe" || strings.Contains(p, "..") {
		return false
	}
	st, err := os.Stat(filepath.Join(l.root, p))
	return err == nil && st.IsDir()
}

// ensureExports shells out to `go list -export` for any of the given
// import paths not already resolved, merging the resulting export-data
// file map. Each testdata package contributes its own stdlib imports, so
// the map grows as the dependency DAG is walked.
func (l *loader) ensureExports(paths []string) error {
	if l.exports == nil {
		l.exports = map[string]string{}
	}
	var missing []string
	for _, p := range paths {
		if _, ok := l.exports[p]; !ok && p != "unsafe" {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json=ImportPath,Export"}, missing...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go list -export: %v\n%s", err, errb.String())
	}
	dec := json.NewDecoder(&out)
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

type expectation struct {
	pos     token.Position // where the want comment is
	col     int            // 0 = any column
	rx      *regexp.Regexp
	matched bool
}

func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*expectation{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				switch {
				case strings.HasPrefix(text, "//"):
					text = text[len("//"):]
				case strings.HasPrefix(text, "/*"):
					text = strings.TrimSuffix(text[len("/*"):], "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				posn := fset.Position(c.Pos())
				k := key{posn.Filename, posn.Line}
				rest := strings.TrimSpace(text[len("want"):])
				for rest != "" {
					col, rx, tail, err := cutExpectation(rest)
					if err != nil {
						t.Errorf("%s: bad want comment: %v", posn, err)
						break
					}
					re, err := regexp.Compile(rx)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", posn, rx, err)
						break
					}
					wants[k] = append(wants[k], &expectation{pos: posn, col: col, rx: re})
					rest = strings.TrimSpace(tail)
				}
			}
		}
	}

	for _, d := range diags {
		posn := fset.Position(d.Pos)
		k := key{posn.Filename, posn.Line}
		found := false
		for _, w := range wants[k] {
			if !w.matched && w.rx.MatchString(d.Message) && (w.col == 0 || w.col == posn.Column) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", posn, d.Message, d.Analyzer)
		}
	}
	for _, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				if w.col != 0 {
					t.Errorf("%s: expected diagnostic at column %d matching %q, got none", w.pos, w.col, w.rx)
				} else {
					t.Errorf("%s: expected diagnostic matching %q, got none", w.pos, w.rx)
				}
			}
		}
	}
}

// cutExpectation splits one expectation off s: an optional `N:` column
// prefix followed by a double- or back-quoted regexp.
func cutExpectation(s string) (col int, unquoted, rest string, err error) {
	if i := strings.IndexByte(s, ':'); i > 0 {
		if n, convErr := strconv.Atoi(s[:i]); convErr == nil {
			if n <= 0 {
				return 0, "", "", fmt.Errorf("column prefix must be positive, got %d", n)
			}
			col = n
			s = s[i+1:]
		}
	}
	unquoted, rest, err = cutQuoted(s)
	return col, unquoted, rest, err
}

// cutQuoted splits a leading double- or back-quoted string off s.
func cutQuoted(s string) (unquoted, rest string, err error) {
	if s == "" {
		return "", "", fmt.Errorf("empty expectation")
	}
	q := s[0]
	if q != '"' && q != '`' {
		return "", "", fmt.Errorf("expectation must be a quoted regexp (optionally col-prefixed as N:\"re\"), got %q", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] == q && (q == '`' || s[i-1] != '\\') {
			unq, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", err
			}
			return unq, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated quoted regexp in %q", s)
}
