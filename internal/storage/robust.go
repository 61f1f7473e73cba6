package storage

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// RobustOptions tunes the robustness envelope around a backend. The
// zero value selects serving-shaped defaults.
type RobustOptions struct {
	// OpTimeout bounds one backend attempt (not the whole retried
	// call). Default 2s.
	OpTimeout time.Duration
	// Retry is the jittered backoff schedule for transport-class
	// failures. ErrNotFound and ErrDigestMismatch are never retried —
	// the backend answered; the answer just wasn't an object. Default:
	// 3 attempts, 25ms base, 250ms cap.
	Retry resilience.Backoff
	// BreakerThreshold is the consecutive post-retry failures that open
	// the circuit. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long the open circuit rejects before a
	// probe. Default 1s. Keep it at or below the registry poll interval
	// so a recovered backend is probed on the next poll, not the one
	// after.
	BreakerCooldown time.Duration
	// Metrics, when set, records storage_ops_total{backend,op,outcome}
	// and the storage_op_seconds{backend,op} histogram.
	Metrics *obs.Registry
}

func (o RobustOptions) withDefaults() RobustOptions {
	if o.OpTimeout <= 0 {
		o.OpTimeout = 2 * time.Second
	}
	if o.Retry.Attempts < 1 {
		o.Retry = resilience.Backoff{Attempts: 3, Base: 25 * time.Millisecond, Max: 250 * time.Millisecond, Seed: 0xD15C}
	}
	if o.BreakerThreshold < 1 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	return o
}

// Robust wraps a BundleStore in the repo's robustness envelope:
// per-attempt timeouts, jittered retry for transport errors, a circuit
// breaker that fails fast once the backend is clearly down, and typed
// errors — every failure leaving Robust wraps ErrNotFound,
// ErrDigestMismatch or ErrStoreUnavailable.
type Robust struct {
	inner   BundleStore
	opts    RobustOptions
	breaker *resilience.Breaker

	reg     *obs.Registry
	seconds map[string]*obs.Histogram
}

// NewRobust wraps inner. The breaker is shared by all four operations:
// the unit of health is the backend, not the verb.
func NewRobust(inner BundleStore, opts RobustOptions) *Robust {
	opts = opts.withDefaults()
	r := &Robust{
		inner:   inner,
		opts:    opts,
		breaker: resilience.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		reg:     opts.Metrics,
	}
	if r.reg != nil {
		r.seconds = make(map[string]*obs.Histogram, 4)
		for _, op := range []string{"put", "get", "stat", "list"} {
			r.seconds[op] = r.reg.Histogram("storage_op_seconds",
				"Bundle-store operation wall time, including retries.", nil,
				obs.Labels{"backend": inner.Name(), "op": op})
		}
	}
	return r
}

// Name reports the wrapped backend's name — Robust is an envelope, not
// a backend of its own.
func (r *Robust) Name() string { return r.inner.Name() }

func (r *Robust) count(op, outcome string) {
	if r.reg == nil {
		return
	}
	r.reg.Counter("storage_ops_total",
		"Bundle-store operations by backend, op and outcome.",
		obs.Labels{"backend": r.inner.Name(), "op": op, "outcome": outcome}).Inc()
}

// permanentErr reports whether err is an answer rather than an outage:
// retrying will not change it, and it must not poison the breaker.
func permanentErr(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrDigestMismatch)
}

// do runs one logical operation through the envelope.
func (r *Robust) do(ctx context.Context, op string, fn func(ctx context.Context) error) error {
	start := time.Now()
	defer func() {
		if h, ok := r.seconds[op]; ok {
			h.Observe(time.Since(start).Seconds())
		}
	}()

	if err := r.breaker.Allow(); err != nil {
		r.count(op, "rejected")
		return fmt.Errorf("storage: %s %s: %w: %w", r.inner.Name(), op, ErrStoreUnavailable, err)
	}

	var permanent error
	err := resilience.Retry(ctx, r.opts.Retry, func(ctx context.Context) error {
		attemptCtx, cancel := context.WithTimeout(ctx, r.opts.OpTimeout)
		defer cancel()
		err := fn(attemptCtx)
		switch {
		case err == nil:
			return nil
		case permanentErr(err):
			// The backend answered; stop retrying and report it as-is.
			permanent = err
			return nil
		case attemptCtx.Err() != nil && ctx.Err() == nil:
			// The per-attempt deadline fired (the caller's context is
			// alive): a slow backend is an unavailable backend.
			return fmt.Errorf("attempt timed out after %v: %w", r.opts.OpTimeout, err)
		default:
			return err
		}
	})

	switch {
	case permanent != nil:
		r.breaker.Success()
		if errors.Is(permanent, ErrNotFound) {
			r.count(op, "not_found")
		} else {
			r.count(op, "mismatch")
		}
		return permanent
	case err == nil:
		r.breaker.Success()
		r.count(op, "ok")
		return nil
	case ctx.Err() != nil:
		// The caller gave up; that says nothing about backend health.
		r.count(op, "canceled")
		return err
	default:
		r.breaker.Failure()
		r.count(op, "error")
		if errors.Is(err, ErrStoreUnavailable) {
			return err
		}
		return fmt.Errorf("storage: %s %s: %w: %w", r.inner.Name(), op, ErrStoreUnavailable, err)
	}
}

// Put stores data under key through the envelope.
func (r *Robust) Put(ctx context.Context, key string, data []byte) error {
	return r.do(ctx, "put", func(ctx context.Context) error {
		return r.inner.Put(ctx, key, data)
	})
}

// Get fetches the object under key through the envelope.
func (r *Robust) Get(ctx context.Context, key string) ([]byte, error) {
	var out []byte
	err := r.do(ctx, "get", func(ctx context.Context) error {
		b, err := r.inner.Get(ctx, key)
		out = b
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stat probes the object under key through the envelope.
func (r *Robust) Stat(ctx context.Context, key string) (ObjectInfo, error) {
	var out ObjectInfo
	err := r.do(ctx, "stat", func(ctx context.Context) error {
		info, err := r.inner.Stat(ctx, key)
		out = info
		return err
	})
	if err != nil {
		return ObjectInfo{}, err
	}
	return out, nil
}

// List enumerates keys under prefix through the envelope.
func (r *Robust) List(ctx context.Context, prefix string) ([]string, error) {
	var out []string
	err := r.do(ctx, "list", func(ctx context.Context) error {
		keys, err := r.inner.List(ctx, prefix)
		out = keys
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
