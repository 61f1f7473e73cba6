package core

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// HealthKind classifies one detected numerical-health violation.
type HealthKind string

const (
	// HealthNaNLogLik: the joint log-likelihood came back NaN or ±Inf.
	// Always checked, policy or not — a chain with a non-finite
	// likelihood can only produce garbage.
	HealthNaNLogLik HealthKind = "nan_loglik"
	// HealthLogLikCollapse: the log-likelihood fell more than
	// HealthPolicy.MaxLLDrop below the chain's running best.
	HealthLogLikCollapse HealthKind = "loglik_collapse"
	// HealthTopicCollapse: topic occupancy imploded to at most
	// HealthPolicy.MinTopics topics.
	HealthTopicCollapse HealthKind = "topic_collapse"
	// HealthDegenerateCovariance: a Normal-Wishart posterior (explicit
	// draw or collapsed predictive) lost positive definiteness beyond
	// what jitter regularization can repair.
	HealthDegenerateCovariance HealthKind = "degenerate_covariance"
	// HealthSweepStall: a sweep exceeded HealthPolicy.SweepTimeout, or
	// an external watchdog observed no sweep completing in time and
	// called AbortUnhealthy.
	HealthSweepStall HealthKind = "sweep_stall"
)

// ErrUnhealthy is the sentinel wrapped by every HealthError, so
// callers can separate "the chain's numbers went bad" from I/O and
// configuration failures with errors.Is.
var ErrUnhealthy = errors.New("core: fit numerically unhealthy")

// HealthEvent is one detected violation: what kind, after which sweep,
// and a human-readable diagnosis.
type HealthEvent struct {
	Kind   HealthKind
	Sweep  int     // 0-based index of the sweep that tripped the check
	LogLik float64 // log-likelihood of that sweep (NaN when unknown)
	Detail string
}

// HealthError is the typed error a Sampler.Run returns when a health
// check aborts the chain. It wraps ErrUnhealthy and, when the
// violation surfaced as an underlying error (e.g. a non-PD Cholesky
// from stats), that cause too.
type HealthError struct {
	Event HealthEvent
	Cause error
}

func (e *HealthError) Error() string {
	return fmt.Sprintf("core: fit unhealthy (%s) after sweep %d: %s", e.Event.Kind, e.Event.Sweep, e.Event.Detail)
}

// Unwrap exposes both the ErrUnhealthy sentinel and the concrete
// cause to errors.Is/As.
func (e *HealthError) Unwrap() []error {
	if e.Cause == nil {
		return []error{ErrUnhealthy}
	}
	return []error{ErrUnhealthy, e.Cause}
}

// HealthPolicy configures the sampler's per-sweep health monitor. The
// zero value keeps only the always-on NaN/±Inf log-likelihood check;
// each threshold enables one more classifier. Violations abort the
// chain: Run returns a *HealthError diagnosing the first one instead
// of sampling onward from a diverged state.
type HealthPolicy struct {
	// MaxLLDrop aborts when the sweep log-likelihood falls more than
	// this below the chain's running best (0 disables). The best is
	// tracked over finite values only and carries across a resume via
	// the snapshot's trace.
	MaxLLDrop float64

	// MinTopics aborts when at most this many topics still hold a
	// recipe (0 disables; 1 catches the classic single-topic implosion).
	MinTopics int

	// SweepTimeout aborts when one sweep's sampling wall time exceeds
	// it (0 disables). This is the in-band half of the stall watchdog;
	// a hung sweep that never returns needs the out-of-band half
	// (AbortUnhealthy from a supervisor goroutine).
	SweepTimeout time.Duration

	// Perturb, when non-nil, rewrites the log-likelihood after each
	// sweep before it is recorded or classified. It exists for
	// deterministic fault injection in tests — poisoning sweep k with a
	// NaN or a collapse — and must be nil in production.
	Perturb func(sweep int, logLik float64) float64
}

// finite reports whether v is a usable log-likelihood value.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// classifySweep applies the policy to one completed sweep and returns
// the first violation, or nil. elapsed is the sweep's sampling wall
// time (hooks excluded).
func (p HealthPolicy) classifySweep(sweep int, ll, best float64, occupied int, elapsed time.Duration) *HealthEvent {
	switch {
	case !finite(ll):
		return &HealthEvent{Kind: HealthNaNLogLik, Sweep: sweep, LogLik: ll,
			Detail: fmt.Sprintf("log-likelihood %v", ll)}
	case p.MaxLLDrop > 0 && finite(best) && ll < best-p.MaxLLDrop:
		return &HealthEvent{Kind: HealthLogLikCollapse, Sweep: sweep, LogLik: ll,
			Detail: fmt.Sprintf("log-likelihood %.6g dropped %.6g below the running best %.6g (limit %g)",
				ll, best-ll, best, p.MaxLLDrop)}
	case p.MinTopics > 0 && occupied <= p.MinTopics:
		return &HealthEvent{Kind: HealthTopicCollapse, Sweep: sweep, LogLik: ll,
			Detail: fmt.Sprintf("only %d topic(s) occupied (floor %d)", occupied, p.MinTopics)}
	case p.SweepTimeout > 0 && elapsed > p.SweepTimeout:
		return &HealthEvent{Kind: HealthSweepStall, Sweep: sweep, LogLik: ll,
			Detail: fmt.Sprintf("sweep took %v, limit %v", elapsed, p.SweepTimeout)}
	}
	return nil
}

// abortSignal is an asynchronous stop request delivered to a running
// chain via Sampler.Abort/AbortUnhealthy.
type abortSignal struct {
	kind   HealthKind // empty for a plain (non-health) abort
	detail string
	cause  error
}

// Abort asks a running chain to stop cooperatively: the sampling loops
// check the flag between documents and between sweeps, and Run returns
// an error wrapping cause. The first abort wins; later calls are
// no-ops. Safe to call from any goroutine while Run is executing.
func (s *Sampler) Abort(cause error) {
	s.abort.CompareAndSwap(nil, &abortSignal{cause: cause})
}

// AbortUnhealthy is Abort for watchdogs: Run returns a *HealthError of
// the given kind (stamped with the current sweep index) instead of a
// plain wrapped error. External supervisors use it to convert "no
// heartbeat within the sweep deadline" into a typed sweep_stall event.
func (s *Sampler) AbortUnhealthy(kind HealthKind, detail string) {
	s.abort.CompareAndSwap(nil, &abortSignal{kind: kind, detail: detail})
}

// aborted is the cheap per-document check used inside sampling loops.
func (s *Sampler) aborted() bool { return s.abort.Load() != nil }

// abortErr materializes the pending abort into the error Run returns,
// or nil when no abort is pending.
func (s *Sampler) abortErr() error {
	sig := s.abort.Load()
	if sig == nil {
		return nil
	}
	if sig.kind != "" {
		return &HealthError{
			Event: HealthEvent{Kind: sig.kind, Sweep: s.sweep, LogLik: math.NaN(), Detail: sig.detail},
			Cause: sig.cause,
		}
	}
	return fmt.Errorf("core: fit aborted at sweep %d: %w", s.sweep, sig.cause)
}
