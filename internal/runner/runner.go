// Package runner runs seed-indexed trials one after another. Every
// experiment in this repo decomposes into independent, single-threaded,
// seed-determined simulations; Map runs them in trial order on the calling
// goroutine and merges their metrics the same way every time.
//
// A trial must be a pure function of its index (plus whatever the caller
// closed over): it builds its own simulated state — topology, engine,
// simclock — and never shares mutable state with another trial.
package runner

import (
	"fmt"
	"runtime/debug"

	"lifeguard/internal/obs"
)

// TrialError is the typed failure of one trial: an error return, or a
// captured panic (Stack non-nil).
type TrialError struct {
	// Trial is the failing trial's index.
	Trial int
	// Err is the underlying cause: the trial's returned error or a panic
	// wrapped as an error.
	Err error
	// Stack is the goroutine stack captured at the panic site; nil for
	// an error return.
	Stack []byte
}

func (e *TrialError) Error() string {
	return fmt.Sprintf("runner: trial %d: %v", e.Trial, e.Err)
}

func (e *TrialError) Unwrap() error { return e.Err }

// Map runs trials 0..n-1 in order and returns their results indexed by
// trial. When dst is enabled each trial gets a private registry (nil
// otherwise), and after the last trial the private registries are merged
// into dst in trial order: a trial that Sets a gauge contributes its own
// value to the sum instead of overwriting the previous trial's. Map stops
// at the first failure, returns it as a *TrialError along with the results
// so far, and leaves dst untouched.
func Map[T any](n int, dst *obs.Registry, trial func(trial int, reg *obs.Registry) (T, error)) ([]T, error) {
	results := make([]T, n)
	regs := make([]*obs.Registry, n)
	for i := range results {
		if dst.Enabled() {
			regs[i] = obs.New()
		}
		v, err := runTrial(i, regs[i], trial)
		if err != nil {
			return results, err
		}
		results[i] = v
	}
	for _, reg := range regs {
		dst.Merge(reg)
	}
	return results, nil
}

// runTrial runs trial i, turning an error return or a panic into a
// *TrialError.
func runTrial[T any](i int, reg *obs.Registry, trial func(trial int, reg *obs.Registry) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &TrialError{Trial: i, Err: fmt.Errorf("panic: %v", r), Stack: debug.Stack()}
		}
	}()
	v, err = trial(i, reg)
	if err != nil {
		err = &TrialError{Trial: i, Err: err}
	}
	return v, err
}
