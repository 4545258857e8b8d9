// Package errcontract enforces the repository's error-contract API
// convention across package boundaries: a function whose name ends in
// "Err" and whose final result is an error — bgp.AnnounceErr,
// bgp.WithdrawErr, and anything else following the PR 2 contract — exists
// precisely so callers handle the error instead of panicking through the
// convenience wrapper. Ignoring that result silently converts a
// recoverable validation failure (bad prefix, unknown ASN) into a no-op,
// which is the silent-nondeterminism class of bug: the simulation keeps
// running with a route that was never actually announced.
//
// The analyzer exports a MustCheck fact for every such function when it
// analyzes the defining package; when it analyzes a caller — any number of
// packages away in the DAG — the fact identifies the callee and the
// dataflow engine decides whether the error result is ever read on any
// path. Three shapes are flagged:
//
//   - the call as a bare statement (or under go/defer): the error is
//     discarded outright;
//   - the error assigned to _: explicitly discarded — if that is truly
//     intended, say why with //lint:ignore lglint/errcontract <reason>;
//   - the error assigned to a variable whose definition reaches no use:
//     checked-looking but dead.
package errcontract

import (
	"go/ast"
	"go/types"
	"strings"

	"lifeguard/internal/analysis"
	"lifeguard/internal/analysis/dataflow"
)

// MustCheck marks a function whose final error result is an API contract:
// callers must read it.
type MustCheck struct{}

// AFact marks MustCheck as a fact type.
func (*MustCheck) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name: "errcontract",
	Doc: "flag ignored errors from *Err error-contract functions (cross-package via facts)\n" +
		"\nFunctions named *Err returning an error (AnnounceErr, WithdrawErr, ...) are the" +
		" checked half of a panicking-wrapper pair; a caller that drops the error turns a" +
		" recoverable failure into a silent no-op. The error must be read on some path.",
	FactTypes: []analysis.Fact{(*MustCheck)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) error {
	exportFacts(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncNode(pass, fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkFuncNode(pass, lit)
				}
				return true
			})
		}
	}
	return nil
}

// exportFacts tags this package's own contract functions so importing
// packages see them.
func exportFacts(pass *analysis.Pass) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if fn, ok := scope.Lookup(name).(*types.Func); ok && isContractFunc(fn) {
			pass.ExportObjectFact(fn, &MustCheck{})
		}
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); isContractFunc(m) {
						pass.ExportObjectFact(m, &MustCheck{})
					}
				}
			}
		}
	}
}

// isContractFunc reports whether fn follows the error-contract naming
// convention: name ends in "Err" (longer than the bare suffix) and the
// final result is an error.
func isContractFunc(fn *types.Func) bool {
	if !strings.HasSuffix(fn.Name(), "Err") || fn.Name() == "Err" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// mustCheck reports whether the called object is under the contract:
// either fact-tagged by this analyzer's pass over its defining package, or
// matching the convention directly (which also covers the defining package
// itself and fact-free drivers).
func mustCheck(pass *analysis.Pass, obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if pass.ImportObjectFact(fn, &MustCheck{}) {
		return true
	}
	return isContractFunc(fn)
}

// checkFuncNode analyzes the direct body of one function (declaration or
// literal); nested literals are handled by their own call.
func checkFuncNode(pass *analysis.Pass, fn ast.Node) {
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	}
	if body == nil {
		return
	}
	var flow *dataflow.Flow // built lazily: most functions have no contract calls

	// Walk with enough ancestry to classify each contract call's context.
	var visit func(n ast.Node, parents []ast.Node)
	visit = func(n ast.Node, parents []ast.Node) {
		if n == nil {
			return
		}
		if _, ok := n.(*ast.FuncLit); ok && len(parents) > 0 {
			return // separate checkFuncNode call handles it
		}
		call, isCall := n.(*ast.CallExpr)
		if isCall && mustCheck(pass, calleeObj(pass, call)) {
			if flow == nil {
				flow = dataflow.NewFunc(fn, pass.TypesInfo)
			}
			checkCall(pass, flow, call, parents)
		}
		parents = append(parents, n)
		for _, c := range children(n) {
			visit(c, parents)
		}
	}
	visit(fn, nil)
}

// checkCall classifies one contract call site by its syntactic context.
func checkCall(pass *analysis.Pass, flow *dataflow.Flow, call *ast.CallExpr, parents []ast.Node) {
	name := calleeName(call)
	// Nearest non-paren ancestor decides the context.
	var parent ast.Node
	for i := len(parents) - 1; i >= 0; i-- {
		if _, ok := parents[i].(*ast.ParenExpr); ok {
			continue
		}
		parent = parents[i]
		break
	}
	switch p := parent.(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "result of %s is an error contract: the error is discarded; check it or suppress with a reason", name)
	case *ast.GoStmt, *ast.DeferStmt:
		pass.Reportf(call.Pos(), "result of %s is an error contract: go/defer discards the error", name)
	case *ast.AssignStmt:
		checkAssigned(pass, flow, call, p, name)
	}
	// Any other context (if-init handled via AssignStmt inside IfStmt,
	// return, argument position, comparison) consumes the value: the
	// responsibility moved somewhere this pass can still see or to a
	// caller that this analyzer will check in turn.
}

// checkAssigned handles `..., err := call(...)`: the error destination must
// be a read variable.
func checkAssigned(pass *analysis.Pass, flow *dataflow.Flow, call *ast.CallExpr, as *ast.AssignStmt, name string) {
	// Locate the LHS expression receiving the final (error) result.
	var errLHS ast.Expr
	if len(as.Rhs) == 1 && as.Rhs[0] == call {
		errLHS = as.Lhs[len(as.Lhs)-1]
	} else {
		for i, rhs := range as.Rhs {
			if rhs == call && i < len(as.Lhs) {
				errLHS = as.Lhs[i]
			}
		}
	}
	id, ok := errLHS.(*ast.Ident)
	if !ok {
		return // stored through a selector/index: assume read elsewhere
	}
	if id.Name == "_" {
		pass.Reportf(call.Pos(), "result of %s is an error contract: assigning the error to _ discards it; handle it or suppress with a reason", name)
		return
	}
	def := flow.DefOf(id)
	if def == nil {
		return // package-level or captured variable: out of scope
	}
	if len(flow.UsesReachedBy(def)) > 0 {
		return
	}
	pass.Reportf(call.Pos(), "result of %s is an error contract: %s is assigned but never read on any path", name, id.Name)
}

// calleeObj resolves the called function's object, seeing through
// selectors and parens; nil for indirect calls.
func calleeObj(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}

// children returns n's immediate AST children, via ast.Inspect's
// depth-first contract.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
