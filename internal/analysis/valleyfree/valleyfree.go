// Package valleyfree flags BGP export paths that drop half of the
// Gao–Rexford valley-free rule.
//
// The rule has two independent clauses: a route learned from a peer or a
// provider (the route's Rel != RelCustomer) may be re-exported only to a
// customer (the relationship to the receiving neighbor == RelCustomer).
// Each clause guards a different leak — the first stops an AS from giving
// free transit between its providers/peers, the second stops customer
// routes from taking valleys — and the engine's mayExport spells them as one
// return of both clauses. The realistic regression is an edit that keeps one
// comparison and loses the other: the result still compiles, still routes
// most of the time, and silently breaks the poisoning experiments that
// depend on export policy (§2.2, §3.1). That half-guarded state is what
// this analyzer rejects.
//
// Heuristic: a function whose name contains "export" and whose body
// consults relationship state — it reads a Rel field from a route-shaped
// struct (one with both Path and Rel fields, in either case: the engine's
// loc-RIB stores the compact adjEntry{rel, path, …}, not a Route) or
// compares an expression against RelCustomer — must contain both guards:
//
//   - route side: a ==/!= comparison (or a switch) between a route's .Rel
//     field and RelCustomer;
//   - neighbor side: a ==/!= comparison (or a switch) between RelCustomer
//     and anything that is not a route's .Rel field (the relationship to
//     the receiving neighbor).
//
// Export-named helpers that never touch relationship state (pure path
// manipulation like Route.exported, or a per-relationship block that names
// only RelPeer/RelProvider) are not valley-free policy and are skipped.
package valleyfree

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lifeguard/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "valleyfree",
	Doc: "flag export functions that enforce only half of the valley-free rule\n" +
		"\nAn export path that consults BGP relationship state must compare both the" +
		" learned route's relationship and the relationship to the receiving neighbor" +
		" against RelCustomer; keeping one comparison and losing the other leaks" +
		" routes across valleys.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !strings.Contains(strings.ToLower(fn.Name.Name), "export") {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// checkFunc classifies every relationship comparison in fn and reports the
// missing guard side(s) as a single diagnostic on the function name.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	var touchesRel, routeGuard, neighborGuard bool
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if isRouteRel(pass, n) {
				touchesRel = true
			}
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			x, y := n.X, n.Y
			if isRelCustomer(x) {
				x, y = y, x
			}
			if !isRelCustomer(y) {
				return true
			}
			touchesRel = true
			if sel, ok := unparen(x).(*ast.SelectorExpr); ok && isRouteRel(pass, sel) {
				routeGuard = true
			} else {
				neighborGuard = true
			}
		case *ast.SwitchStmt:
			if n.Tag == nil || !switchMentionsCustomer(n) {
				return true
			}
			touchesRel = true
			if sel, ok := unparen(n.Tag).(*ast.SelectorExpr); ok && isRouteRel(pass, sel) {
				routeGuard = true
			} else {
				neighborGuard = true
			}
		}
		return true
	})
	if !touchesRel {
		return
	}
	switch {
	case routeGuard && neighborGuard:
	case routeGuard:
		pass.Reportf(fn.Name.Pos(), "%s checks the route's relationship but never the neighbor's: a route may leave the AS toward a peer or provider only if it was learned from a customer — also compare the relationship to the receiving neighbor against RelCustomer", fn.Name.Name)
	case neighborGuard:
		pass.Reportf(fn.Name.Pos(), "%s checks the neighbor's relationship but never the learned route's: routes learned from peers or providers must go only to customers — also compare the route's .Rel against RelCustomer", fn.Name.Name)
	default:
		pass.Reportf(fn.Name.Pos(), "%s consults BGP relationship state but has neither valley-free guard: compare both the learned route's .Rel and the relationship to the receiving neighbor against RelCustomer", fn.Name.Name)
	}
}

// isRelCustomer reports whether e names the customer relationship constant,
// either bare (RelCustomer) or qualified (topo.RelCustomer).
func isRelCustomer(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name == "RelCustomer"
	case *ast.SelectorExpr:
		return e.Sel.Name == "RelCustomer"
	}
	return false
}

// isRouteRel reports whether sel reads the Rel (or rel) field of a
// route-shaped value: a struct (or pointer to one) that has both a Path and
// a Rel field, exported or not.
func isRouteRel(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if !strings.EqualFold(sel.Sel.Name, "Rel") {
		return false
	}
	return isRouteShaped(pass.TypesInfo.TypeOf(sel.X))
}

func isRouteShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	var hasPath, hasRel bool
	for i := 0; i < st.NumFields(); i++ {
		switch strings.ToLower(st.Field(i).Name()) {
		case "path":
			hasPath = true
		case "rel":
			hasRel = true
		}
	}
	return hasPath && hasRel
}

// switchMentionsCustomer reports whether any case of the switch lists
// RelCustomer.
func switchMentionsCustomer(sw *ast.SwitchStmt) bool {
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if isRelCustomer(e) {
				return true
			}
		}
	}
	return false
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
