// Command lglint is the repository's vet tool: eight custom analyzers that
// enforce LIFEGUARD's determinism and concurrency invariants at compile
// time, complementing the runtime checks in determinism_test.go.
//
// It speaks the standard `go vet -vettool` protocol, so it runs under the
// build cache with full type information:
//
//	go build -o bin/lglint ./cmd/lglint
//	go vet -vettool=bin/lglint ./...     # all eight analyzers
//	go vet -vettool=bin/lglint -maporder ./...   # just one
//
// or simply `make lint`, which also runs the standard vet passes.
//
// Per-package analyzers:
//
//	simclockcheck  no wall-clock time outside the allowlist (use simclock)
//	seededrand     no global math/rand or crypto/rand (inject *rand.Rand)
//	maporder       no order-sensitive output from map iteration
//	lockcopyplus   no lock-bearing structs moved by value in signatures
//
// Cross-package analyzers (facts flow along the import DAG):
//
//	errcontract    errors from *Err contract functions must be checked
//	failureid      FailureIDs must not be reused after Heal*/Remove*
//	obsregistry    obs handles must be created before runner.Map fan-out
//	journaltaint   no wall-clock/RNG-derived values in the journal or reports
//
// A finding can be suppressed, with a mandatory written reason, by
//
//	//lint:ignore lglint/<analyzer> <reason>
//
// on or directly above the offending line; reasonless or misspelled
// directives are themselves diagnostics.
package main

import (
	"lifeguard/internal/analysis"
	"lifeguard/internal/analysis/errcontract"
	"lifeguard/internal/analysis/failureid"
	"lifeguard/internal/analysis/journaltaint"
	"lifeguard/internal/analysis/lockcopyplus"
	"lifeguard/internal/analysis/maporder"
	"lifeguard/internal/analysis/obsregistry"
	"lifeguard/internal/analysis/seededrand"
	"lifeguard/internal/analysis/simclockcheck"
)

func main() {
	analysis.Main(
		simclockcheck.Analyzer,
		seededrand.Analyzer,
		maporder.Analyzer,
		lockcopyplus.Analyzer,
		errcontract.Analyzer,
		failureid.Analyzer,
		obsregistry.Analyzer,
		journaltaint.Analyzer,
	)
}
