package resilience

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for breaker timing tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(threshold, cooldown)
	b.Clock = clk.now
	return b, clk
}

// TestBreakerOpensAtThreshold: the circuit trips on the Nth
// consecutive failure, not before, and a success resets the streak.
func TestBreakerOpensAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("failure %d: circuit already open", i)
		}
		b.Failure()
	}
	b.Success() // streak broken
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("post-reset failure %d: circuit open early", i)
		}
		b.Failure()
	}
	if b.state != BreakerClosed {
		t.Fatalf("state %v after 2/3 failures, want closed", b.state)
	}
	b.Failure()
	if b.state != BreakerOpen {
		t.Fatalf("state %v after threshold failures, want open", b.state)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow on open circuit: %v, want ErrBreakerOpen", err)
	}
}

// TestBreakerHalfOpenProbe: after the cooldown exactly one probe is
// admitted; its success closes the circuit, its failure re-opens it.
func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("circuit should be open")
	}

	clk.advance(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe after cooldown rejected: %v", err)
	}
	// The probe is in flight: everyone else is still rejected.
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second caller during half-open: %v, want ErrBreakerOpen", err)
	}
	b.Failure() // probe failed → re-open for another full cooldown
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("circuit should have re-opened after failed probe")
	}

	clk.advance(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Success()
	if b.state != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.state)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed circuit rejecting calls: %v", err)
	}
}

// TestBreakerConcurrent hammers the breaker from many goroutines under
// the race detector; the single-probe invariant is checked by counting
// admissions in one half-open window.
func TestBreakerConcurrent(t *testing.T) {
	b, clk := newTestBreaker(2, time.Second)
	b.Failure()
	b.Failure() // open
	clk.advance(2 * time.Second)

	var admitted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow() == nil {
				mu.Lock()
				admitted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if admitted != 1 {
		t.Fatalf("%d probes admitted in one half-open window, want exactly 1", admitted)
	}
}
