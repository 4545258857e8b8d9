package main

import "time"

// wallNow is the benchmark's only wall-clock read; every host-time
// measurement goes through it (and through since), so the repo's
// simclockcheck analyzer has exactly one reasoned exception to audit.
func wallNow() time.Time {
	//lint:ignore lglint/simclockcheck the benchmark measures host time by design; no simulated result ever reads it
	return time.Now()
}

// since reports the host time elapsed since t.
func since(t time.Time) time.Duration { return wallNow().Sub(t) }
