// Package resilience is the degradation toolkit the serving stack is
// built on: a bounded-concurrency admission gate that sheds load
// instead of queueing it unboundedly, panic-recovery and
// per-request-timeout HTTP middleware, a jittered retry helper, and a
// deterministic fault injector so every degraded path is testable
// without real overload.
package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrSaturated reports that the gate could not admit a caller within
// its wait budget. HTTP servers should map it to 429 Too Many
// Requests with a Retry-After hint.
var ErrSaturated = errors.New("resilience: saturated")

// Gate is a bounded-concurrency admission gate: at most capacity
// callers hold it at once. A caller over capacity waits up to the
// gate's wait budget (or its context, whichever ends first) for a
// slot to free, then is shed with ErrSaturated — bounding both
// concurrency and queueing delay, the two knobs that keep an
// overloaded service answering instead of collapsing.
type Gate struct {
	slots   chan struct{}
	maxWait time.Duration

	shed atomic.Int64
}

// NewGate builds a gate admitting capacity concurrent holders, each
// willing to wait up to maxWait for admission. capacity below 1 is
// clamped to 1; maxWait of 0 sheds immediately when full.
func NewGate(capacity int, maxWait time.Duration) *Gate {
	if capacity < 1 {
		capacity = 1
	}
	if maxWait < 0 {
		maxWait = 0
	}
	return &Gate{slots: make(chan struct{}, capacity), maxWait: maxWait}
}

// Acquire admits the caller or reports why it cannot: ErrSaturated
// when the wait budget expires with the gate still full, or the
// context error when ctx ends first. Every nil return must be paired
// with exactly one Release.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if g.maxWait == 0 {
		g.shed.Add(1)
		return ErrSaturated
	}
	timer := time.NewTimer(g.maxWait)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-timer.C:
		g.shed.Add(1)
		return ErrSaturated
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire admits the caller only when a slot is free right now —
// no waiting, no shed accounting. Batch handlers use it to claim
// opportunistic extra slots beyond the one they were admitted on:
// spare capacity parallelizes the batch, a busy gate does not shed
// traffic for it. A true return must be paired with exactly one
// Release.
func (g *Gate) TryAcquire() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release frees one slot. Calling it without a matching Acquire is a
// programming error and panics.
func (g *Gate) Release() {
	select {
	case <-g.slots:
	default:
		panic("resilience: Gate.Release without Acquire")
	}
}

// InUse is the number of currently admitted holders.
func (g *Gate) InUse() int { return len(g.slots) }

// Shed is the total number of Acquires rejected with ErrSaturated.
func (g *Gate) Shed() int64 { return g.shed.Load() }

// RetryAfter suggests how long a shed caller should back off before
// retrying: the wait budget rounded up to a whole second (the
// granularity of the Retry-After header), at least one second.
func (g *Gate) RetryAfter() time.Duration {
	d := g.maxWait
	if d < time.Second {
		return time.Second
	}
	return ((d + time.Second - 1) / time.Second) * time.Second
}
