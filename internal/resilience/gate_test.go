package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGateAdmitsUpToCapacity(t *testing.T) {
	g := NewGate(2, 0)
	ctx := context.Background()
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if g.InUse() != 2 {
		t.Errorf("inUse=%d", g.InUse())
	}
	if err := g.Acquire(ctx); !errors.Is(err, ErrSaturated) {
		t.Errorf("over-capacity acquire = %v, want ErrSaturated", err)
	}
	g.Release()
	if err := g.Acquire(ctx); err != nil {
		t.Errorf("post-release acquire = %v", err)
	}
	if g.Shed() != 1 {
		t.Errorf("shed=%d", g.Shed())
	}
}

func TestGateTryAcquire(t *testing.T) {
	g := NewGate(2, time.Second)
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("TryAcquire refused free slots")
	}
	if g.TryAcquire() {
		t.Fatal("TryAcquire took a slot past capacity")
	}
	if g.Shed() != 0 {
		t.Errorf("shed=%d; TryAcquire must not count as shed", g.Shed())
	}
	g.Release()
	if !g.TryAcquire() {
		t.Error("TryAcquire refused a released slot")
	}
	if g.InUse() != 2 {
		t.Errorf("inUse=%d", g.InUse())
	}
}

func TestGateWaitsForSlot(t *testing.T) {
	g := NewGate(1, time.Second)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		g.Release()
	}()
	if err := g.Acquire(context.Background()); err != nil {
		t.Errorf("waiting acquire = %v, want admission after release", err)
	}
}

func TestGateHonoursContext(t *testing.T) {
	g := NewGate(1, time.Minute)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if err := g.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled acquire = %v", err)
	}
}

func TestGateReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unmatched Release should panic")
		}
	}()
	NewGate(1, 0).Release()
}

func TestGateRetryAfter(t *testing.T) {
	if d := NewGate(1, 0).RetryAfter(); d != time.Second {
		t.Errorf("zero-wait RetryAfter = %v", d)
	}
	if d := NewGate(1, 1500*time.Millisecond).RetryAfter(); d != 2*time.Second {
		t.Errorf("1.5s-wait RetryAfter = %v, want 2s", d)
	}
}

// TestGateConcurrentHammer drives the gate from many goroutines under
// the race detector: concurrency never exceeds capacity and every
// admission is either released or counted shed.
func TestGateConcurrentHammer(t *testing.T) {
	const capacity = 3
	g := NewGate(capacity, time.Millisecond)
	var peak, cur atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := g.Acquire(context.Background()); err != nil {
					continue
				}
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(100 * time.Microsecond)
				cur.Add(-1)
				g.Release()
			}
		}()
	}
	wg.Wait()
	if peak.Load() > capacity {
		t.Errorf("observed %d concurrent holders, capacity %d", peak.Load(), capacity)
	}
	if g.InUse() != 0 {
		t.Errorf("%d slots leaked", g.InUse())
	}
}
