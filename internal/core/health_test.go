package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

func healthTestConfig(iters int) Config {
	cfg := DefaultConfig()
	cfg.K = 3
	cfg.Iterations = iters
	cfg.BurnIn = iters / 2
	cfg.Seed = 7
	return cfg
}

// requireHealthError asserts err is a *HealthError of the given kind
// wrapping ErrUnhealthy, and returns it.
func requireHealthError(t *testing.T, err error, kind HealthKind) *HealthError {
	t.Helper()
	if err == nil {
		t.Fatalf("fit succeeded, want a %s health error", kind)
	}
	if !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("error %v does not wrap ErrUnhealthy", err)
	}
	var he *HealthError
	if !errors.As(err, &he) {
		t.Fatalf("error %v is not a *HealthError", err)
	}
	if he.Event.Kind != kind {
		t.Fatalf("health kind = %s, want %s (event: %+v)", he.Event.Kind, kind, he.Event)
	}
	return he
}

// TestHealthNaNLogLikAborts injects a NaN log-likelihood at a fixed
// sweep and checks the always-on classifier aborts there with a typed
// event.
func TestHealthNaNLogLikAborts(t *testing.T) {
	data, _ := synthData(3, 60)
	cfg := healthTestConfig(40)
	cfg.Health = HealthPolicy{
		Perturb: func(sweep int, ll float64) float64 {
			if sweep == 17 {
				return math.NaN()
			}
			return ll
		},
	}
	_, err := Fit(data, cfg)
	he := requireHealthError(t, err, HealthNaNLogLik)
	if he.Event.Sweep != 17 {
		t.Fatalf("event sweep = %d, want 17", he.Event.Sweep)
	}
}

// TestHealthLogLikCollapseAborts drops the log-likelihood far below
// the running best at one sweep and checks the MaxLLDrop classifier
// catches it.
func TestHealthLogLikCollapseAborts(t *testing.T) {
	data, _ := synthData(3, 60)
	cfg := healthTestConfig(40)
	// The threshold must clear the chain's natural burn-in fluctuation
	// (tens of nats on this corpus) while the injected 1000-nat drop
	// sails past it.
	cfg.Health = HealthPolicy{
		MaxLLDrop: 500,
		Perturb: func(sweep int, ll float64) float64 {
			if sweep == 20 {
				return ll - 1000
			}
			return ll
		},
	}
	_, err := Fit(data, cfg)
	he := requireHealthError(t, err, HealthLogLikCollapse)
	if he.Event.Sweep != 20 {
		t.Fatalf("event sweep = %d, want 20", he.Event.Sweep)
	}
}

// TestHealthTopicCollapseAborts sets the occupancy floor at K, so the
// first completed sweep necessarily trips the implosion classifier —
// exercising the occupancy plumbing end to end.
func TestHealthTopicCollapseAborts(t *testing.T) {
	data, _ := synthData(3, 30)
	cfg := healthTestConfig(20)
	cfg.Health = HealthPolicy{MinTopics: cfg.K}
	_, err := Fit(data, cfg)
	he := requireHealthError(t, err, HealthTopicCollapse)
	if he.Event.Sweep != 0 {
		t.Fatalf("event sweep = %d, want 0", he.Event.Sweep)
	}
}

// TestHealthSweepTimeoutInBand arms the in-band stall check with an
// impossible deadline; the first sweep must abort as a stall.
func TestHealthSweepTimeoutInBand(t *testing.T) {
	data, _ := synthData(3, 30)
	cfg := healthTestConfig(20)
	cfg.Health = HealthPolicy{SweepTimeout: time.Nanosecond}
	_, err := Fit(data, cfg)
	requireHealthError(t, err, HealthSweepStall)
}

// TestHealthAbortUnhealthyWatchdog covers the out-of-band abort: a
// watchdog calling AbortUnhealthy makes Run return a typed stall error
// without recording a partial sweep.
func TestHealthAbortUnhealthyWatchdog(t *testing.T) {
	data, _ := synthData(3, 30)
	cfg := healthTestConfig(20)
	s, err := NewSampler(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AbortUnhealthy(HealthSweepStall, "watchdog: no heartbeat")
	err = s.Run()
	requireHealthError(t, err, HealthSweepStall)
	if s.CompletedSweeps() != 0 {
		t.Fatalf("completed sweeps = %d after pre-run abort, want 0", s.CompletedSweeps())
	}
}

// TestHealthAbortPlainError covers Abort with a non-health cause (the
// supervisor's context-cancellation path): the returned error wraps
// the cause but is not a HealthError.
func TestHealthAbortPlainError(t *testing.T) {
	data, _ := synthData(3, 30)
	cfg := healthTestConfig(20)
	s, err := NewSampler(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("context canceled")
	s.Abort(cause)
	err = s.Run()
	if !errors.Is(err, cause) {
		t.Fatalf("error %v does not wrap the abort cause", err)
	}
	var he *HealthError
	if errors.As(err, &he) {
		t.Fatalf("plain abort produced a HealthError: %v", err)
	}
}

// TestHealthDegenerateCovarianceRecovered poisons a collapsed
// sampler's gel accumulator so the Normal-Wishart predictive loses
// positive definiteness beyond repair; the resulting kernel panic must
// come back as a typed degenerate_covariance health error, not a
// crash.
func TestHealthDegenerateCovarianceRecovered(t *testing.T) {
	data, _ := synthData(3, 30)
	cfg := healthTestConfig(20)
	cfg.Collapsed = true
	s, err := NewSampler(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A hugely negative-definite scatter cannot be regularized by any
	// plausible jitter: base + outer stays indefinite through all 60
	// doublings and the stats layer panics with ErrNumericalHealth.
	n, sum, outer := s.gelAcc[0].State()
	for i := 0; i < outer.R; i++ {
		outer.Set(i, i, -1e300)
	}
	if err := s.gelAcc[0].SetState(n, sum, outer); err != nil {
		t.Fatal(err)
	}
	err = s.Run()
	he := requireHealthError(t, err, HealthDegenerateCovariance)
	if !errors.Is(err, stats.ErrNumericalHealth) {
		t.Fatalf("error %v does not wrap stats.ErrNumericalHealth", err)
	}
	if he.Cause == nil {
		t.Fatal("degenerate-covariance event lost its cause")
	}
}

// TestHealthChecksBeforeCheckpoint ensures a sweep that trips a health
// check never reaches the checkpoint emission: the diverged state must
// not overwrite the last healthy checkpoint.
func TestHealthChecksBeforeCheckpoint(t *testing.T) {
	data, _ := synthData(3, 60)
	cfg := healthTestConfig(40)
	cfg.CheckpointEvery = 5
	var sweeps []int
	cfg.CheckpointFunc = func(sn *Snapshot) error {
		sweeps = append(sweeps, sn.Sweep)
		return nil
	}
	cfg.Health = HealthPolicy{
		Perturb: func(sweep int, ll float64) float64 {
			if sweep == 9 { // would checkpoint after this sweep ((9+1)%5 == 0)
				return math.NaN()
			}
			return ll
		},
	}
	_, err := Fit(data, cfg)
	requireHealthError(t, err, HealthNaNLogLik)
	if len(sweeps) != 1 || sweeps[0] != 5 {
		t.Fatalf("checkpointed sweeps = %v, want exactly [5] (nothing at or after the divergence)", sweeps)
	}
}

// TestHealthBestCarriesAcrossResume checks the collapse reference
// survives a checkpoint round trip: a resumed chain seeded with the
// old trace must compare new sweeps against the pre-resume best.
func TestHealthBestCarriesAcrossResume(t *testing.T) {
	data, _ := synthData(3, 60)
	cfg := healthTestConfig(10)
	var snap *Snapshot
	cfg.CheckpointEvery = 10
	cfg.CheckpointFunc = func(sn *Snapshot) error { snap = sn; return nil }
	if _, err := Fit(data, cfg); err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Sweep != 10 {
		t.Fatalf("expected a checkpoint at sweep 10, got %+v", snap)
	}
	cfg.Iterations = 20
	cfg.CheckpointFunc = nil
	cfg.Health = HealthPolicy{
		MaxLLDrop: 500,
		Perturb: func(sweep int, ll float64) float64 {
			if sweep == 12 {
				return ll - 1000 // collapse relative to the resumed trace's best
			}
			return ll
		},
	}
	s, err := ResumeSampler(data, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	he := requireHealthError(t, s.Run(), HealthLogLikCollapse)
	if he.Event.Sweep != 12 {
		t.Fatalf("event sweep = %d, want 12", he.Event.Sweep)
	}
}
