// Package runner is a deterministic fan-out executor for seed-indexed
// trials. Every experiment in this repo decomposes into independent,
// single-threaded, seed-determined simulations; the runner executes those
// trials on a bounded worker pool and hands the results back in strict
// trial-index order, so any reduction layered on top produces output
// byte-identical to a sequential run.
//
// The determinism contract:
//
//   - A trial must be a pure function of its index (plus whatever the
//     caller closed over): it builds its own simulated state — topology,
//     engine, simclock — and never shares mutable state with another
//     trial. Each trial therefore runs single-threaded on one worker, and
//     the simclock single-ownership invariant holds per trial.
//   - Map returns results indexed by trial, regardless of completion
//     order, and merges each trial's private metrics registry into the
//     caller's in trial-index order. Parallelism changes wall-clock time
//     and nothing else.
//   - A panicking trial is captured as a *TrialError carrying the panic
//     value and stack; the first (lowest-indexed) real failure is
//     returned after the pool drains, and the surrounding context is
//     cancelled so unstarted trials are skipped.
//
// On failure the *set of attempted trials* is scheduling-dependent (later
// trials may or may not have started before cancellation), but the
// returned error prefers the lowest-indexed non-cancellation failure, and
// trial functions are deterministic, so a given failing workload reports
// the same root cause run to run.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"lifeguard/internal/obs"
)

// ErrTimeout marks a trial that exceeded Config.Timeout.
var ErrTimeout = errors.New("trial timed out")

// Config bounds the pool.
type Config struct {
	// Parallelism is the worker count; <= 0 means GOMAXPROCS. With
	// Parallelism 1 trials run sequentially on the calling goroutine —
	// the reference execution every parallel run must be byte-identical
	// to.
	Parallelism int
	// Timeout is the per-trial wall-clock budget; 0 means none. A
	// simulation cannot be preempted mid-event, so a timed-out trial's
	// goroutine is abandoned (it finishes into the void) and the trial
	// is reported as a *TrialError wrapping ErrTimeout.
	Timeout time.Duration
}

// Workers reports the effective worker ceiling: Parallelism, or
// GOMAXPROCS when unset.
func (c Config) Workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) workers(n int) int {
	w := c.Workers()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// TrialError is the typed failure of one trial: an error return, a
// captured panic (Stack non-nil), a timeout, or a cancellation.
type TrialError struct {
	// Trial is the failing trial's index.
	Trial int
	// Err is the underlying cause: the trial's returned error, a
	// panic wrapped as an error, ErrTimeout, or a context error.
	Err error
	// Stack is the goroutine stack captured at the panic site; nil for
	// non-panic failures.
	Stack []byte
}

func (e *TrialError) Error() string {
	return fmt.Sprintf("runner: trial %d: %v", e.Trial, e.Err)
}

func (e *TrialError) Unwrap() error { return e.Err }

// Map runs trials 0..n-1 on the pool and returns their results indexed by
// trial. When dst is non-nil each trial gets a private registry (nil
// otherwise), and after the pool drains the private registries are merged
// into dst in trial-index order, so dst's snapshot is byte-identical at
// every parallelism level. On failure it returns the lowest-indexed
// non-cancellation error (always a *TrialError) along with whatever results
// completed, and leaves dst untouched.
func Map[T any](ctx context.Context, n int, cfg Config, dst *obs.Registry, trial func(ctx context.Context, trial int, reg *obs.Registry) (T, error)) ([]T, error) {
	if n < 0 {
		panic(fmt.Sprintf("runner: negative trial count %d", n))
	}
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}
	regs := make([]*obs.Registry, n)
	if dst.Enabled() {
		for i := range regs {
			regs[i] = obs.New()
		}
	}
	if err := execute(ctx, cfg, results, regs, trial); err != nil {
		return results, err
	}
	for _, reg := range regs {
		dst.Merge(reg)
	}
	return results, nil
}

// execute fills results[i] with trial i, run against regs[i].
func execute[T any](ctx context.Context, cfg Config, results []T, regs []*obs.Registry, trial func(ctx context.Context, trial int, reg *obs.Registry) (T, error)) error {
	n := len(results)
	workers := cfg.workers(n)
	if workers == 1 {
		// Sequential reference path: no goroutines, stop at the first
		// failure exactly like a plain loop would.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("runner: %w", err)
			}
			v, err := runTrial(ctx, cfg.Timeout, i, regs[i], trial)
			results[i] = v
			if err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				v, err := runTrial(poolCtx, cfg.Timeout, i, regs[i], trial)
				// Distinct indices per trial: no write overlaps.
				results[i] = v
				errs[i] = err
				if err != nil {
					cancel() // stop feeding new trials
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case feed <- i:
		case <-poolCtx.Done():
			break dispatch
		}
	}
	close(feed)
	wg.Wait()

	if err := firstError(errs); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		// The parent context died before every trial was dispatched.
		return fmt.Errorf("runner: %w", err)
	}
	return nil
}

// firstError picks the error to surface: the lowest-indexed failure that
// is not itself a cancellation echo (trials abandoned because some other
// trial already failed), falling back to the lowest-indexed failure of
// any kind.
func firstError(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

// runTrial executes one trial with panic capture and, when configured,
// a wall-clock watchdog.
func runTrial[T any](ctx context.Context, timeout time.Duration, i int, reg *obs.Registry, trial func(ctx context.Context, trial int, reg *obs.Registry) (T, error)) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	exec := func(ctx context.Context) (out outcome) {
		defer func() {
			if r := recover(); r != nil {
				out.err = &TrialError{
					Trial: i,
					Err:   fmt.Errorf("panic: %v", r),
					Stack: debug.Stack(),
				}
			}
		}()
		v, err := trial(ctx, i, reg)
		if err != nil {
			err = &TrialError{Trial: i, Err: err}
		}
		return outcome{v: v, err: err}
	}

	if timeout <= 0 {
		o := exec(ctx)
		return o.v, o.err
	}

	trialCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan outcome, 1) // buffered: an abandoned trial never blocks
	go func() { done <- exec(trialCtx) }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var zero T
	select {
	case o := <-done:
		return o.v, o.err
	case <-timer.C:
		cancel()
		return zero, &TrialError{Trial: i, Err: fmt.Errorf("%w after %v", ErrTimeout, timeout)}
	case <-ctx.Done():
		return zero, &TrialError{Trial: i, Err: ctx.Err()}
	}
}
