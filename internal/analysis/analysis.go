// Package analysis is a deliberately small, dependency-free re-creation of
// the golang.org/x/tools/go/analysis model: an Analyzer inspects one
// type-checked package at a time and reports position-tagged diagnostics,
// and may exchange serializable facts with runs of the same analyzer on
// other packages.
//
// The repository cannot vendor x/tools (stdlib-only policy), and the subset
// we need — per-package syntax + types, diagnostics, facts along the package
// DAG, a vet driver, and a testdata harness — is around a thousand lines, so
// we own it. The shape mirrors x/tools closely enough that migrating to the
// real framework later is a mechanical change.
//
// Drivers:
//
//   - unitchecker.go speaks the `go vet -vettool` protocol, so the lglint
//     suite runs under the build cache with full export data, exactly like
//     the standard vet passes; facts ride in the vetx files the protocol
//     already ships between packages (see cmd/lglint).
//   - analysistest/ runs an analyzer over testdata packages — including
//     testdata-local dependency packages, analyzed first so facts flow —
//     and matches diagnostics against `// want "regexp"` comments.
//
// Every diagnostic can be suppressed with a written justification:
//
//	//lint:ignore lglint/<analyzer> <reason>
//
// See ignore.go for the exact rules; a malformed directive is itself a
// diagnostic, so silent or reasonless suppressions cannot land.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer inspects a single type-checked package and reports findings.
type Analyzer struct {
	// Name is the short identifier, e.g. "simclockcheck". Diagnostics and
	// suppression directives refer to it as lglint/<Name>.
	Name string

	// Doc is the full help text. The first line is used as the one-line
	// summary in -flags output.
	Doc string

	// FactTypes lists prototype values (pointers to zero structs) of every
	// Fact type this analyzer exports or imports. An analyzer with a
	// non-empty FactTypes also runs on dependency packages in fact-only
	// mode so its facts are available when importers are analyzed.
	FactTypes []Fact

	// Run performs the analysis. It reports findings via pass.Reportf and
	// returns an error only for internal failures (which abort the driver),
	// never for findings.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with everything it may inspect for a single
// package, plus the Reportf sink for diagnostics and the fact store.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
	facts *FactSet
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact states fact about obj, a package-level object (or method
// of one) of the package under analysis. The fact becomes visible to this
// analyzer when later passes analyze importing packages, and to
// ImportObjectFact within this pass immediately.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil {
		return
	}
	p.facts.export(p.Analyzer, p.Pkg, obj, fact)
}

// ImportObjectFact copies into fact the fact previously exported for obj —
// by this pass or by this analyzer's run on the package that defines obj —
// and reports whether one existed. fact must be a pointer of a type listed
// in the analyzer's FactTypes.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil {
		return false
	}
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	return p.facts.importFact(p.Analyzer, pkg, obj, fact)
}

// ExportPackageFact states fact about the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	if p.facts == nil {
		return
	}
	p.facts.export(p.Analyzer, p.Pkg, nil, fact)
}

// ImportPackageFact copies into fact the package fact previously exported
// for pkg, reporting whether one existed.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	if p.facts == nil || pkg == nil {
		return false
	}
	return p.facts.importFact(p.Analyzer, pkg, nil, fact)
}

// A Diagnostic is a single finding. Analyzer is the short analyzer name, or
// DirectiveCheckerName for problems with suppression directives themselves.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Run executes the given analyzers over one type-checked package, applies
// //lint:ignore suppression, and returns the surviving diagnostics sorted by
// position. Malformed directives are appended as diagnostics exactly once,
// regardless of how many analyzers ran.
//
// facts carries previously-imported dependency facts in and newly-exported
// facts out; nil disables the mechanism (fact calls become no-ops reporting
// nothing, so analyzers degrade to single-package reasoning).
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactSet) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	directives, malformed := parseDirectives(fset, files, known)

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			diags:     &diags,
			facts:     facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(directives, fset.Position(d.Pos), d.Analyzer) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, malformed...)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}
