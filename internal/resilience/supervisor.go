package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// CheckpointStore is the supervisor's view of durable checkpoint
// storage. The pipeline's single-file checkpoint directory implements
// it; tests substitute in-memory fakes. A checkpoint holds only state
// a sweep that passed its health check produced (Sampler.Run
// classifies a sweep before it emits one), so whether it can be
// resumed is decided by loading it, not by a label beside it.
type CheckpointStore interface {
	// Writer returns a fresh checkpoint sink for one fit attempt: write
	// is installed as core.Config.CheckpointFunc, flush is called after
	// the attempt ends and must surface any write failure. A fresh pair
	// per attempt means a sticky write error from a crashed attempt
	// does not poison its successor.
	Writer() (write func(*core.Snapshot) error, flush func() error)
	// Load returns the most recent checkpoint. Any error means
	// "nothing to resume from" — missing, corrupt or unreadable — and
	// sends the supervisor to a fresh restart.
	Load() (*core.Snapshot, error)
	// Discard retires the current checkpoint (e.g. after resuming it
	// failed), so the next Load does not hand it back.
	Discard(reason string) error
}

// Incident actions: what the supervisor did after a failed attempt.
const (
	ActionRollback = "rollback" // resumed the last checkpoint
	ActionRestart  = "restart"  // started a fresh reseeded chain
	ActionGaveUp   = "gave_up"  // restart budget exhausted (or canceled)
)

// Incident records one failed fit attempt and the supervisor's
// response. The slice of incidents is the fit's full recovery history,
// attached to the final error on failure and reported by /statusz.
type Incident struct {
	Attempt int    `json:"attempt"` // 0-based attempt index that failed
	Sweep   int    `json:"sweep"`   // sweeps completed when it failed (-1 unknown)
	Kind    string `json:"kind"`    // health-event kind, or "error"
	Detail  string `json:"detail"`
	Action  string `json:"action"` // rollback | restart | gave_up
	// ResumedFrom is the checkpoint sweep the next attempt resumed
	// from; -1 when it started fresh (or gave up).
	ResumedFrom int       `json:"resumed_from"`
	At          time.Time `json:"at"`
}

// FitError is the supervisor's terminal failure: the restart budget is
// spent (or the context ended) and the fit did not complete. It wraps
// the last attempt's error and carries the full incident history.
type FitError struct {
	Incidents []Incident
	Last      error
}

func (e *FitError) Error() string {
	return fmt.Sprintf("resilience: fit failed after %d incident(s): %v", len(e.Incidents), e.Last)
}

func (e *FitError) Unwrap() error { return e.Last }

// Supervisor wraps core fits with automatic recovery: health-aborted
// or otherwise failed attempts roll back to the last checkpoint (when
// a Store is configured), escalate to a fresh reseeded chain when the
// checkpoint itself is burned, apply the jittered Backoff between
// attempts via Retry, and give up — with the full incident history —
// once MaxRestarts recoveries are spent. A fresh restart after a
// failure reseeds to seed + attempt·reseedStride, so a chain that
// diverged from bad RNG luck does not replay the same trajectory;
// rollbacks never reseed, since the checkpoint's RNG stream is part of
// the state being resumed.
type Supervisor struct {
	// MaxRestarts bounds recovery attempts after the first; 0 means no
	// recovery (a single attempt).
	MaxRestarts int

	// Backoff shapes the delay between attempts (Attempts is derived
	// from MaxRestarts and ignored). The zero value retries
	// immediately.
	Backoff Backoff

	// Store, when non-nil, provides checkpoint rollback. Without it
	// every recovery is a fresh restart.
	Store CheckpointStore

	// OnIncident, when non-nil, observes each incident as it is
	// recorded (metrics, logging).
	OnIncident func(Incident)
}

// reseedStride offsets the seed of each fresh restart: the splitmix64
// increment, odd and well mixed.
const reseedStride = 0x9E3779B97F4A7C15

// RunFit runs the supervised fit. initial, when non-nil, is a
// checkpoint to resume from on the first attempt (startup -resume);
// the supervisor's own rollbacks load later checkpoints from Store.
// On success it returns the estimates plus any incidents survived
// along the way; on failure the returned error is a *FitError wrapping
// the last attempt's error, and errors.Is sees through it (e.g. to
// core.ErrUnhealthy).
func (sv *Supervisor) RunFit(ctx context.Context, data *core.Data, cfg core.Config, initial *core.Snapshot) (*core.Result, []Incident, error) {
	attempts := sv.MaxRestarts + 1
	if attempts < 1 {
		attempts = 1
	}
	b := sv.Backoff
	b.Attempts = attempts

	var (
		incidents  []Incident
		res        *core.Result
		attempt    = -1
		resume     = initial
		lastResume = -1 // checkpoint sweep the previous failed attempt resumed from
	)
	if initial != nil {
		lastResume = initial.Sweep
	}
	op := func(ctx context.Context) error {
		attempt++
		acfg := cfg
		if resume == nil && attempt > 0 {
			// Fresh restart after a failure: reseed so the chain explores
			// a different trajectory instead of replaying the divergence.
			acfg.Seed = cfg.Seed + uint64(attempt)*reseedStride
		}
		r, sweeps, runErr := sv.runOnce(ctx, data, acfg, resume)
		if runErr == nil {
			res = r
			return nil
		}
		inc := newIncident(attempt, sweeps, runErr)
		if attempt+1 >= attempts || ctx.Err() != nil {
			inc.Action = ActionGaveUp
		} else {
			resume, lastResume = sv.nextStart(lastResume, &inc)
		}
		incidents = append(incidents, inc)
		if sv.OnIncident != nil {
			sv.OnIncident(inc)
		}
		return runErr
	}
	if err := Retry(ctx, b, op); err != nil {
		return nil, incidents, &FitError{Incidents: incidents, Last: err}
	}
	return res, incidents, nil
}

// runOnce executes one fit attempt: build (or resume) the sampler,
// install the heartbeat hook and checkpoint writer, arm the watchdog,
// run, and flush the writer. It returns the completed sweep count for
// incident reporting.
func (sv *Supervisor) runOnce(ctx context.Context, data *core.Data, cfg core.Config, resume *core.Snapshot) (*core.Result, int, error) {
	var flush func() error
	if sv.Store != nil {
		write, fl := sv.Store.Writer()
		cfg.CheckpointFunc = write
		flush = fl
	}
	hb := &heartbeat{}
	hb.beat(time.Now())
	cfg.Hooks = cfg.Hooks.Then(core.SweepHooks{OnSweep: func(core.SweepStats) { hb.beat(time.Now()) }})

	var s *core.Sampler
	var err error
	if resume != nil {
		// A rollback resumes the checkpoint's own seed (which a reseeded
		// predecessor may have changed); ResumeSampler refuses mismatches.
		cfg.Seed = resume.Seed
		s, err = core.ResumeSampler(data, cfg, resume)
	} else {
		s, err = core.NewSampler(data, cfg)
	}
	if err != nil {
		return nil, -1, err
	}
	stop := sv.watch(ctx, s, hb, cfg.Health.SweepTimeout)
	runErr := s.Run()
	stop()
	sweeps := s.CompletedSweeps()
	if flush != nil {
		if ferr := flush(); ferr != nil && runErr == nil {
			runErr = ferr
		}
	}
	if runErr != nil {
		return nil, sweeps, runErr
	}
	return s.Estimate(), sweeps, nil
}

// nextStart decides how the next attempt begins, annotating the
// incident. A checkpoint that already failed a resume is burned: it is
// discarded and the supervisor escalates to a fresh reseeded chain.
func (sv *Supervisor) nextStart(lastResume int, inc *Incident) (*core.Snapshot, int) {
	inc.Action = ActionRestart
	if sv.Store == nil {
		return nil, -1
	}
	sn, err := sv.Store.Load()
	if err != nil {
		inc.Detail += "; no checkpoint to resume: " + err.Error()
		return nil, -1
	}
	if sn.Sweep == lastResume {
		reason := fmt.Sprintf("attempt %d failed again after resuming sweep %d", inc.Attempt, sn.Sweep)
		if derr := sv.Store.Discard(reason); derr != nil {
			inc.Detail += "; discarding burned checkpoint: " + derr.Error()
		} else {
			inc.Detail += fmt.Sprintf("; checkpoint at sweep %d burned, restarting fresh", sn.Sweep)
		}
		return nil, -1
	}
	inc.Action = ActionRollback
	inc.ResumedFrom = sn.Sweep
	return sn, sn.Sweep
}

// newIncident classifies an attempt failure. Typed health errors carry
// their own sweep index and kind; anything else reports as "error"
// with the sampler's completed-sweep count.
func newIncident(attempt, sweeps int, err error) Incident {
	inc := Incident{
		Attempt:     attempt,
		Sweep:       sweeps,
		Kind:        "error",
		Detail:      err.Error(),
		ResumedFrom: -1,
		At:          time.Now(),
	}
	var he *core.HealthError
	if errors.As(err, &he) {
		inc.Kind = string(he.Event.Kind)
		inc.Sweep = he.Event.Sweep
	}
	return inc
}

// heartbeat is the watchdog's shared clock: the sampler's sweep hook
// stamps it, the watchdog goroutine reads it.
type heartbeat struct {
	nanos atomic.Int64
}

func (h *heartbeat) beat(t time.Time) { h.nanos.Store(t.UnixNano()) }
func (h *heartbeat) last() time.Time  { return time.Unix(0, h.nanos.Load()) }

// watch arms the out-of-band stall watchdog: when no sweep completes
// within timeout, the sampler is aborted with a typed sweep_stall
// event; a context end aborts it with the context error. The returned
// stop function disarms the watchdog and waits for it to exit. With no
// timeout and a non-cancellable context it is a no-op.
func (sv *Supervisor) watch(ctx context.Context, s *core.Sampler, hb *heartbeat, timeout time.Duration) func() {
	if timeout <= 0 && ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var tick <-chan time.Time
		if timeout > 0 {
			// Poll at a quarter of the deadline: a stall is noticed at
			// most 1.25 timeouts after the last heartbeat.
			interval := timeout / 4
			if interval < time.Millisecond {
				interval = time.Millisecond
			}
			t := time.NewTicker(interval)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				s.Abort(ctx.Err())
				return
			case <-tick:
				if time.Since(hb.last()) > timeout {
					s.AbortUnhealthy(core.HealthSweepStall,
						fmt.Sprintf("no sweep completed within %v", timeout))
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
