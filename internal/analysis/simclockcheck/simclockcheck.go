// Package simclockcheck forbids wall-clock time in simulator code.
//
// The reproduction's results are only meaningful if identical seeds replay
// identical event sequences (determinism_test.go); a single time.Now or
// time.Sleep smuggled into the decision process, the monitor, or an
// experiment silently couples results to the host scheduler. All simulated
// time must flow through internal/simclock's virtual clock.
//
// A small allowlist covers the packages that legitimately touch the real
// clock: the trial runner's per-trial watchdog and the HTTP exporter's
// uptime and request timestamps, neither of which a simulated result can
// observe. Anything else needs a
// //lint:ignore lglint/simclockcheck <reason> with a written justification.
package simclockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"lifeguard/internal/analysis"
)

// forbidden lists the time package's wall-clock entry points. Pure
// arithmetic (time.Duration, time.Second, ParseDuration…) stays legal.
var forbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Allowlist holds import-path prefixes where wall-clock time is the point,
// not a bug. Each entry must say why. A package path matches if it equals an
// entry or lives below it; the external-test variant of a package inherits
// its allowlisting.
var Allowlist = []string{
	// The trial runner's per-trial timeout is a wall-clock watchdog
	// against hung simulations; trials themselves stay on the virtual
	// clock, and the runner never influences their results.
	"lifeguard/internal/runner",
	// The HTTP exporter serves live operators: /healthz uptime and request
	// timestamps are wall-clock readings about the host process. The obs
	// core (registry, journal, encoders) is NOT allowlisted — it records
	// sim-time only, enforced by internal/obs's TestNoWallClockInCore.
	"lifeguard/internal/obs/obshttp",
}

var Analyzer = &analysis.Analyzer{
	Name: "simclockcheck",
	Doc: "forbid wall-clock time (time.Now, Sleep, After, ...) outside the allowlist; simulator code must use internal/simclock\n" +
		"\nDeterministic replay is the foundation of every result in this repo;" +
		" wall-clock reads make runs irreproducible.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if allowlisted(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods like Timer.Stop are fine
			}
			if forbidden[fn.Name()] {
				pass.Reportf(id.Pos(), "forbidden wall-clock call time.%s: simulator code must use the virtual clock (internal/simclock)", fn.Name())
			}
			return true
		})
	}
	return nil
}

// allowlisted matches pkg path against Allowlist, normalizing the forms the
// vet driver hands us for test variants: "p [p.test]" and "p_test [p.test]".
func allowlisted(path string) bool {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, "_test")
	for _, prefix := range Allowlist {
		if path == prefix || strings.HasPrefix(path, prefix+"/") {
			return true
		}
	}
	return false
}
