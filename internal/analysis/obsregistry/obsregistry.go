// Package obsregistry enforces the observability registry's fan-out
// discipline: metric handles (Counter/Gauge/Histogram) and Describe
// registrations must be created before trials fan out through runner.Map
// (or any other Map/Reduce-named fan-out), never inside the per-trial
// closure against a registry captured from outside. Handle creation on a shared registry
// inside the closure makes first-touch ordering depend on trial
// scheduling — exactly the nondeterminism the obs subsystem's sorted
// snapshots exist to rule out — and turns every trial's hot path into a
// lock-acquiring lookup that the before-fan-out pattern pays once.
//
// The analyzer exports a FanOut fact for every Map/Reduce-named function
// taking a func-typed parameter; at call sites — local or across packages
// via the fact — it inspects function-literal arguments and flags handle
// creation on registries that escape into the closure from the enclosing
// scope. A registry declared inside the closure is fine: the one runner.Map
// hands each trial as a parameter (merged into the caller's in trial
// order), or one the closure creates itself.
package obsregistry

import (
	"go/ast"
	"go/types"

	"lifeguard/internal/analysis"
)

// FanOut marks a function that runs its func-typed arguments concurrently
// across trials.
type FanOut struct{}

// AFact marks FanOut as a fact type.
func (*FanOut) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name: "obsregistry",
	Doc: "flag obs registry handle creation inside fan-out trial closures (cross-package via facts)\n" +
		"\nCounter/Gauge/Histogram/Describe on a registry captured by a runner.Map" +
		" closure makes series creation order depend on trial scheduling. Create handles" +
		" before the fan-out, or use the per-trial registry runner.Map hands the trial.",
	FactTypes: []analysis.Fact{(*FanOut)(nil)},
	Run:       run,
}

// handleMethods are the Registry methods that create or register series.
var handleMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"Describe":  true,
}

func run(pass *analysis.Pass) error {
	exportFacts(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isFanOut(pass, calleeObj(pass, call)) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkClosure(pass, lit, calleeName(call))
				}
			}
			return true
		})
	}
	return nil
}

func exportFacts(pass *analysis.Pass) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if fn, ok := scope.Lookup(name).(*types.Func); ok && isFanOutFunc(fn) {
			pass.ExportObjectFact(fn, &FanOut{})
		}
	}
}

// isFanOutFunc applies the naming rule: Map or Reduce with at least one
// func-typed parameter.
func isFanOutFunc(fn *types.Func) bool {
	if fn.Name() != "Map" && fn.Name() != "Reduce" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if _, ok := sig.Params().At(i).Type().Underlying().(*types.Signature); ok {
			return true
		}
	}
	return false
}

func isFanOut(pass *analysis.Pass, obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if pass.ImportObjectFact(fn, &FanOut{}) {
		return true
	}
	return isFanOutFunc(fn)
}

// checkClosure flags handle creation inside lit on registries declared
// outside it.
func checkClosure(pass *analysis.Pass, lit *ast.FuncLit, fanOutName string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !handleMethods[sel.Sel.Name] {
			return true
		}
		m, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || !isRegistryMethod(m) {
			return true
		}
		base := baseIdent(sel.X)
		if base == nil {
			// Field access or call result: assume the registry came from
			// outside — only a local declaration proves otherwise.
			report(pass, call, sel.Sel.Name, fanOutName)
			return true
		}
		obj := pass.TypesInfo.Uses[base]
		if obj == nil || insideLit(obj, lit) {
			return true // per-trial registry: allowed
		}
		report(pass, call, sel.Sel.Name, fanOutName)
		return true
	})
}

func report(pass *analysis.Pass, call *ast.CallExpr, method, fanOutName string) {
	pass.Reportf(call.Pos(), "obs registry %s inside a %s trial closure on an escaping registry: create handles before the fan-out or use a per-trial registry", method, fanOutName)
}

// isRegistryMethod reports whether m is a method of a named type Registry
// (by value or pointer receiver).
func isRegistryMethod(m *types.Func) bool {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// baseIdent returns the leftmost identifier of a selector chain, or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// insideLit reports whether obj is declared within lit's extent.
func insideLit(obj types.Object, lit *ast.FuncLit) bool {
	return obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
}

func calleeObj(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	case *ast.IndexExpr: // explicit instantiation: Map[int](...)
		return calleeObjFromExpr(pass, fun.X)
	case *ast.IndexListExpr:
		return calleeObjFromExpr(pass, fun.X)
	}
	return nil
}

func calleeObjFromExpr(pass *analysis.Pass, e ast.Expr) types.Object {
	switch fun := ast.Unparen(e).(type) {
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
	case *ast.IndexExpr:
		return calleeNameFromExpr(fun.X)
	case *ast.IndexListExpr:
		return calleeNameFromExpr(fun.X)
	}
	return "call"
}

func calleeNameFromExpr(e ast.Expr) string {
	switch fun := ast.Unparen(e).(type) {
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
