//go:build !simclockdebug

package simclock

// ownerGuard is compiled away outside the simclockdebug build tag: the
// release scheduler carries no ownership state and check() inlines to
// nothing. Build with -tags simclockdebug (make debug-test, CI) to turn
// cross-goroutine scheduler use into an immediate panic instead of silent
// nondeterminism.
type ownerGuard struct{}

func (*ownerGuard) check() {}
