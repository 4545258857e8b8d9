package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// This file implements the `go vet -vettool` driver protocol, the same one
// x/tools' unitchecker speaks. cmd/go invokes the tool three ways:
//
//	lglint -V=full          print a version line (build-cache fingerprint)
//	lglint -flags           print the supported flags as JSON
//	lglint [flags] foo.cfg  analyze one package described by the JSON config
//
// The .cfg file names the package's source files and the export-data files
// of every dependency, so we type-check with the compiler's own export data
// rather than re-walking source. Diagnostics go to stderr as
// file:line:col: message; a non-zero exit tells cmd/go the package failed.

// vetConfig mirrors the JSON written by cmd/go for each vet'd package. Field
// names are the protocol; unknown fields are ignored on decode.
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoVersion    string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string
	ImportMap    map[string]string
	PackageFile  map[string]string
	Standard     map[string]bool
	PackageVetx  map[string]string
	VetxOnly     bool
	VetxOutput   string

	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a vettool binary built from the given
// analyzers. It never returns.
func Main(analyzers ...*Analyzer) {
	progname := filepath.Base(os.Args[0])

	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	versionFlag := fs.String("V", "", "print version and exit (cmd/go passes -V=full)")
	flagsFlag := fs.Bool("flags", false, "print analyzer flags as JSON and exit")
	enable := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		enable[a.Name] = fs.Bool(a.Name, false, firstLine(a.Doc))
	}
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "%s is a vet tool; run via go vet -vettool:\n\n", progname)
		fmt.Fprintf(os.Stderr, "  go vet -vettool=$(which %s) [-<analyzer>...] ./...   (or `make lint`)\n\n", progname)
		fmt.Fprintf(os.Stderr, "Analyzers (all enabled unless specific ones are requested):\n\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
		}
		fmt.Fprintf(os.Stderr, "\nSuppress a finding with `//lint:ignore lglint/<analyzer> <reason>` on\n")
		fmt.Fprintf(os.Stderr, "or directly above the offending line; the reason is mandatory.\n")
	}
	fs.Parse(os.Args[1:])

	if *versionFlag != "" {
		// cmd/go fingerprints the tool to key its vet result cache: the
		// line must read "<name> version devel ... buildID=<id>". Hashing
		// our own executable means a rebuilt lglint (new or changed
		// analyzers) invalidates previously cached vet verdicts.
		id, err := selfHash()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			os.Exit(1)
		}
		fmt.Printf("%s version devel buildID=%s\n", progname, id)
		os.Exit(0)
	}
	if *flagsFlag {
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		var out []jsonFlag
		for _, a := range analyzers {
			out = append(out, jsonFlag{a.Name, true, firstLine(a.Doc)})
		}
		data, err := json.MarshalIndent(out, "", "\t")
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			os.Exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
		os.Exit(0)
	}

	// cmd/go hands the tool exactly one package config; anything else is a
	// person at a shell.
	if fs.NArg() != 1 || !strings.HasSuffix(fs.Arg(0), ".cfg") {
		fs.Usage()
		os.Exit(2)
	}

	// Honor explicit -<analyzer> selection; default is the full suite.
	selected := analyzers
	if any := false; true {
		for _, a := range analyzers {
			any = any || *enable[a.Name]
		}
		if any {
			selected = nil
			for _, a := range analyzers {
				if *enable[a.Name] {
					selected = append(selected, a)
				}
			}
		}
	}

	os.Exit(runUnit(progname, fs.Arg(0), selected))
}

func runUnit(progname, cfgFile string, analyzers []*Analyzer) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}

	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return fail(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fail(fmt.Errorf("parsing %s: %w", cfgFile, err))
	}

	// Facts from every dependency the .cfg names. Missing or empty vetx
	// files (pre-facts caches, deps that failed to analyze) decode as
	// empty sets: absent facts mean fewer findings, never wrong ones.
	facts := NewFactSet()
	for _, vetx := range cfg.PackageVetx {
		data, err := os.ReadFile(vetx)
		if err != nil {
			continue
		}
		if err := facts.Decode(data); err != nil {
			return fail(fmt.Errorf("reading facts from %s: %w", vetx, err))
		}
	}

	// cmd/go expects the facts file to exist afterward; it now carries the
	// set of imported + newly exported facts for this package.
	writeVetx := func() error {
		if cfg.VetxOutput == "" {
			return nil
		}
		data, err := facts.Encode()
		if err != nil {
			return err
		}
		return os.WriteFile(cfg.VetxOutput, data, 0o666)
	}

	if cfg.VetxOnly {
		// Dependency pass: cmd/go only wants facts. Run the fact-bearing
		// analyzers and discard their diagnostics. Dependencies include
		// the whole standard library, which we did not write and cannot
		// fix, so any failure here — parse, typecheck, analyzer panic —
		// degrades to "no facts from this package" rather than breaking
		// the lint run.
		func() {
			defer func() { recover() }() // a dep we can't analyze exports no facts
			var factful []*Analyzer
			for _, a := range analyzers {
				if len(a.FactTypes) > 0 {
					factful = append(factful, a)
				}
			}
			if len(factful) == 0 {
				return
			}
			fset := token.NewFileSet()
			var files []*ast.File
			for _, name := range cfg.GoFiles {
				f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
				if err != nil {
					return
				}
				files = append(files, f)
			}
			pkg, info, err := typecheck(fset, files, &cfg)
			if err != nil {
				return
			}
			Run(factful, fset, files, pkg, info, facts)
		}()
		if err := writeVetx(); err != nil {
			return fail(err)
		}
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return 0
			}
			return fail(err)
		}
		files = append(files, f)
	}

	pkg, info, err := typecheck(fset, files, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		return fail(fmt.Errorf("typechecking %s: %w", cfg.ImportPath, err))
	}

	diags, err := Run(analyzers, fset, files, pkg, info, facts)
	if err != nil {
		return fail(err)
	}
	if err := writeVetx(); err != nil {
		return fail(err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, tag(d))
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func tag(d Diagnostic) string {
	if d.Analyzer == DirectiveCheckerName {
		return DirectiveCheckerName
	}
	return ourPrefix + d.Analyzer
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TypecheckImporter builds go/types information for the files of one
// package, resolving imports through imp. The vet driver passes an
// export-data importer built from the .cfg; analysistest passes one that
// also resolves testdata-local dependency packages from source (so facts
// can flow between testdata packages).
func TypecheckImporter(fset *token.FileSet, files []*ast.File, path, goVersion string, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: majorMinor(goVersion),
	}
	pkg, err := tc.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

func typecheck(fset *token.FileSet, files []*ast.File, cfg *vetConfig) (*types.Package, *types.Info, error) {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	// The gc importer requires canonical paths; ImportMap canonicalizes the
	// source-level ones.
	imp := importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		return gc.Import(path)
	})
	return TypecheckImporter(fset, files, cfg.ImportPath, cfg.GoVersion, imp)
}

var goVersionRE = regexp.MustCompile(`^go\d+\.\d+`)

// majorMinor trims a toolchain version like "go1.24.0" to the "go1.24" form
// go/types accepts across releases; anything unrecognized becomes "" (latest).
func majorMinor(v string) string {
	return goVersionRE.FindString(v)
}

// selfHash returns a hex digest of the running executable.
func selfHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16]), nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
