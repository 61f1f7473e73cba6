package resilience

import (
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen is returned by Breaker.Allow while the circuit is
// open: the protected dependency has failed enough times in a row that
// calling it again is presumed wasted work (and added load on whatever
// is already struggling). Callers fail fast instead.
var ErrBreakerOpen = errors.New("resilience: circuit open")

// BreakerState is the circuit position.
type BreakerState int

const (
	// BreakerClosed: calls flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: calls are rejected until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe call is in flight; its outcome decides
	// whether the circuit closes again or re-opens.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a consecutive-failure circuit breaker: Threshold failures
// in a row open the circuit, Allow rejects with ErrBreakerOpen for
// Cooldown, then exactly one probe is admitted. A probe success closes
// the circuit; a probe failure re-opens it for another cooldown.
//
// The caller brackets each protected call with Allow / Success /
// Failure. Failures that are the caller's own fault (a missing key, a
// digest mismatch on intact transport) should be reported as Success —
// the breaker tracks dependency health, not payload validity.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the
	// circuit. Values below 1 mean 5.
	Threshold int
	// Cooldown is how long the circuit stays open before a probe is
	// allowed. Values <= 0 mean 1 second.
	Cooldown time.Duration

	// Clock is a test hook; time.Now when nil.
	Clock func() time.Time

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
}

// NewBreaker builds a closed breaker. threshold < 1 and cooldown <= 0
// select the defaults (5 failures, 1 second).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{Threshold: threshold, Cooldown: cooldown}
}

func (b *Breaker) now() time.Time {
	if b.Clock != nil {
		return b.Clock()
	}
	return time.Now()
}

func (b *Breaker) threshold() int {
	if b.Threshold < 1 {
		return 5
	}
	return b.Threshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return time.Second
	}
	return b.Cooldown
}

// Allow reports whether a call may proceed. While open it returns
// ErrBreakerOpen; once the cooldown has elapsed it admits a single
// half-open probe (concurrent callers keep getting ErrBreakerOpen
// until that probe reports its outcome).
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerHalfOpen:
		return ErrBreakerOpen
	default: // open
		if b.now().Sub(b.openedAt) < b.cooldown() {
			return ErrBreakerOpen
		}
		b.state = BreakerHalfOpen
		return nil
	}
}

// Success records a healthy call: the failure streak resets and a
// half-open probe closes the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.state = BreakerClosed
}

// Failure records a failed call. In the closed state it advances the
// streak and opens the circuit at the threshold; a failed half-open
// probe re-opens immediately for another full cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.open()
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold() {
			b.open()
		}
	}
}

// open transitions to the open state. Callers hold b.mu.
func (b *Breaker) open() {
	b.state = BreakerOpen
	b.failures = 0
	b.openedAt = b.now()
}
