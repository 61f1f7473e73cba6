package pipeline

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// CheckpointFile is the fixed name of the chain checkpoint inside a
// checkpoint directory. One file, atomically replaced on every write:
// after a crash there is exactly one candidate to resume from.
const CheckpointFile = "checkpoint.ckpt"

// checkpointSchemaVersion guards the checkpoint payload layout (the
// core snapshot wire format rides inside; core versions that itself).
const checkpointSchemaVersion = 1

// ErrUnhealthyCheckpoint marks a checkpoint whose health digest (or
// log-likelihood trace) shows the chain had already diverged when it
// was written. The supervisor skips such checkpoints and restarts
// fresh instead of resuming garbage.
var ErrUnhealthyCheckpoint = errors.New("pipeline: checkpoint unhealthy")

// CheckpointHealth is the health digest stamped into a checkpoint
// container's header: enough for a supervisor to decide "safe to
// resume?" without decompressing the payload.
type CheckpointHealth struct {
	// Sweep is the snapshot's completed-sweep index.
	Sweep int `json:"sweep"`
	// LogLik is the last finite log-likelihood in the trace (0 when the
	// trace is empty). Kept finite by construction: JSON cannot carry
	// NaN, and a non-finite trace flips Healthy off instead.
	LogLik float64 `json:"loglik"`
	// Healthy is false when the trace contains a non-finite value — the
	// signature of a checkpoint written mid-divergence.
	Healthy bool `json:"healthy"`
	// Reason explains an unhealthy digest.
	Reason string `json:"reason,omitempty"`
}

// snapshotHealth derives the digest from the snapshot's own trace: a
// chain is presumed healthy unless its log-likelihood history says
// otherwise. Also used on load, so a digest cannot claim health its
// payload contradicts (and legacy digest-less checkpoints get the same
// scrutiny).
func snapshotHealth(sn *core.Snapshot) CheckpointHealth {
	h := CheckpointHealth{Sweep: sn.Sweep, Healthy: true}
	for i, v := range sn.LogLik {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			h.Healthy = false
			h.Reason = fmt.Sprintf("non-finite log-likelihood at trace index %d", i)
			continue
		}
		h.LogLik = v
	}
	return h
}

// WriteCheckpointFile persists the snapshot to dir/checkpoint.ckpt in
// the format-2 durable container (kind "checkpoint"), crash-safely via
// temp file + fsync + atomic rename, stamping the header with a health
// digest derived from the snapshot's log-likelihood trace. The
// directory is created if absent.
func WriteCheckpointFile(dir string, sn *core.Snapshot) error {
	h := snapshotHealth(sn)
	return WriteCheckpointFileWithHealth(dir, sn, h)
}

// WriteCheckpointFileWithHealth is WriteCheckpointFile with an
// explicit health digest — for callers that know more than the trace
// shows (or tests forging diverged checkpoints). A non-finite LogLik
// is sanitized to keep the header JSON-encodable.
func WriteCheckpointFileWithHealth(dir string, sn *core.Snapshot, h CheckpointHealth) error {
	if math.IsNaN(h.LogLik) || math.IsInf(h.LogLik, 0) {
		h.LogLik = 0
		h.Healthy = false
		if h.Reason == "" {
			h.Reason = "non-finite log-likelihood"
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("pipeline: checkpoint dir: %w", err)
	}
	body, err := gzipJSON("checkpoint", sn.WriteJSON)
	if err != nil {
		return err
	}
	return AtomicWriteFile(filepath.Join(dir, CheckpointFile), func(w *bufio.Writer) error {
		return writeContainer(w, kindCheckpoint, checkpointSchemaVersion, body, &h)
	})
}

// LoadCheckpointFile reads dir/checkpoint.ckpt. A missing file returns
// an error satisfying errors.Is(err, fs.ErrNotExist) so callers can
// fall back to a fresh fit; damaged or foreign files return wrapped
// ErrCorrupt / ErrVersion / ErrKind like bundles do.
func LoadCheckpointFile(dir string) (*core.Snapshot, error) {
	sn, _, err := LoadCheckpointWithHealth(dir)
	return sn, err
}

// LoadCheckpointWithHealth is LoadCheckpointFile exposing the health
// digest. Checkpoints from writers predating the digest derive one
// from the snapshot's trace; either way the digest is cross-checked
// against the trace, so Healthy=true means both header and payload
// agree the chain was clean.
func LoadCheckpointWithHealth(dir string) (*core.Snapshot, CheckpointHealth, error) {
	path := filepath.Join(dir, CheckpointFile)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, CheckpointHealth{}, fmt.Errorf("pipeline: opening checkpoint: %w", err)
	}
	sn, h, err := readCheckpoint(bytes.NewReader(b))
	if err != nil {
		return nil, h, fmt.Errorf("%s: %w", path, err)
	}
	return sn, h, nil
}

// readCheckpoint parses a checkpoint container stream.
func readCheckpoint(r io.Reader) (*core.Snapshot, CheckpointHealth, error) {
	var health CheckpointHealth
	payload, hdr, err := readContainer(r, kindCheckpoint)
	if err != nil {
		return nil, health, err
	}
	if hdr.Schema > checkpointSchemaVersion || hdr.Schema < 1 {
		return nil, health, fmt.Errorf("pipeline: checkpoint schema %d, this build reads ≤ %d: %w",
			hdr.Schema, checkpointSchemaVersion, ErrVersion)
	}
	sn, err := gunzipJSON(payload, "checkpoint", core.ReadSnapshotJSON)
	if err != nil {
		return nil, health, fmt.Errorf("pipeline: %w", err)
	}
	derived := snapshotHealth(sn)
	if hdr.Health == nil {
		// Pre-digest writer: judge the chain by its trace alone.
		health = derived
	} else {
		health = *hdr.Health
		if health.Healthy && !derived.Healthy {
			// The header claims health the payload contradicts; trust the
			// evidence over the label.
			health.Healthy = false
			health.Reason = derived.Reason
		}
	}
	return sn, health, nil
}

// CheckpointWriter writes snapshots in the background so the sampler
// never blocks on disk. It is single-flight: if a write is still in
// progress when the next snapshot arrives, the new one is skipped (the
// following checkpoint will capture a fresher state anyway). A failed
// write is sticky — the NEXT Write call returns it, aborting the chain
// instead of sampling on top of a dead disk.
type CheckpointWriter struct {
	dir string

	// Injector, when non-nil, injects faults into the durable write
	// path (operation "checkpoint.write") before the temp+rename
	// sequence runs — the crash-during-checkpoint-write test hook. Set
	// it before the first Write; it is read from the writer goroutine.
	Injector resilience.Injector

	writes *obs.Counter
	errs   *obs.Counter
	skips  *obs.Counter
	last   *obs.Gauge

	mu   sync.Mutex
	busy bool
	err  error
	wg   sync.WaitGroup
}

// NewCheckpointWriter builds a writer targeting dir. reg may be nil;
// when set, the writer maintains checkpoint_writes_total,
// checkpoint_write_errors_total, checkpoint_skipped_total and
// checkpoint_last_sweep.
func NewCheckpointWriter(dir string, reg *obs.Registry) *CheckpointWriter {
	w := &CheckpointWriter{dir: dir}
	if reg != nil {
		w.writes = reg.Counter("checkpoint_writes_total",
			"Chain checkpoints durably written.", nil)
		w.errs = reg.Counter("checkpoint_write_errors_total",
			"Chain checkpoint writes that failed.", nil)
		w.skips = reg.Counter("checkpoint_skipped_total",
			"Checkpoints skipped because the previous write was still in flight.", nil)
		w.last = reg.Gauge("checkpoint_last_sweep",
			"Sweep index of the most recently persisted checkpoint.", nil)
	}
	return w
}

// Write hands the snapshot to the background writer and returns
// immediately. Safe to use directly as core.Config.CheckpointFunc: the
// snapshot is already a deep copy, so the chain may keep mutating.
func (w *CheckpointWriter) Write(sn *core.Snapshot) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.busy {
		if w.skips != nil {
			w.skips.Inc()
		}
		return nil
	}
	w.busy = true
	w.wg.Add(1)
	go func() {
		err := resilience.Inject(context.Background(), w.Injector, "checkpoint.write")
		if err == nil {
			err = WriteCheckpointFile(w.dir, sn)
		}
		w.mu.Lock()
		w.busy = false
		if err != nil {
			w.err = err
			if w.errs != nil {
				w.errs.Inc()
			}
		} else {
			if w.writes != nil {
				w.writes.Inc()
			}
			if w.last != nil {
				w.last.Set(float64(sn.Sweep))
			}
		}
		w.mu.Unlock()
		w.wg.Done()
	}()
	return nil
}

// Flush waits for any in-flight write and returns the sticky error, if
// one occurred. Call after the fit finishes so the final checkpoint is
// on disk before the process reports success.
func (w *CheckpointWriter) Flush() error {
	w.wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// CheckpointOptions configures crash recovery for the model-fit stage.
type CheckpointOptions struct {
	// Dir, when non-empty, enables checkpointing: the chain state is
	// durably written to Dir/checkpoint.ckpt every Every sweeps.
	Dir string
	// Every is the checkpoint cadence in sweeps (default 25).
	Every int
	// Resume loads an existing checkpoint from Dir and continues the
	// chain from it instead of starting fresh. A missing checkpoint
	// falls back to a fresh fit; a damaged one is an error (unless the
	// fit is supervised, in which case the supervisor starts fresh and
	// records the skip).
	Resume bool
}

// FitCheckpointStore adapts the pipeline's single-file durable
// checkpoint to the supervisor's CheckpointStore: health-gated loads,
// a fresh background writer per attempt, and discard-by-rename so a
// burned checkpoint stays on disk for post-mortems.
type FitCheckpointStore struct {
	Dir     string
	Metrics *obs.Registry
	// Injector is forwarded to each attempt's CheckpointWriter (fault
	// injection for the durable write path).
	Injector resilience.Injector
}

// Writer returns a fresh CheckpointWriter pair for one fit attempt.
func (st *FitCheckpointStore) Writer() (func(*core.Snapshot) error, func() error) {
	w := NewCheckpointWriter(st.Dir, st.Metrics)
	w.Injector = st.Injector
	return w.Write, w.Flush
}

// LoadHealthy loads the checkpoint only when its health digest — and
// the trace inside — agree the chain was clean at write time.
func (st *FitCheckpointStore) LoadHealthy() (*core.Snapshot, error) {
	sn, h, err := LoadCheckpointWithHealth(st.Dir)
	if err != nil {
		return nil, err
	}
	if !h.Healthy {
		return nil, fmt.Errorf("%w: sweep %d: %s", ErrUnhealthyCheckpoint, h.Sweep, h.Reason)
	}
	return sn, nil
}

// Discard retires the current checkpoint by renaming it to
// checkpoint.ckpt.discarded (replacing any earlier discard), keeping
// the diverged state inspectable. A missing checkpoint is a no-op.
func (st *FitCheckpointStore) Discard(reason string) error {
	_ = reason // recorded by the supervisor's incident, not on disk
	src := filepath.Join(st.Dir, CheckpointFile)
	err := os.Rename(src, src+".discarded")
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// fitModel runs the model stage: the sharded fitter when ShardCount >
// 1, else one chain. The incident slice is non-empty only when a
// supervised chain needed recovery; the summary is non-nil only for
// sharded fits.
func fitModel(data *core.Data, opts Options) (*core.Result, []resilience.Incident, *ShardFitSummary, error) {
	if opts.ShardCount > 1 {
		if shardFitter == nil {
			return nil, nil, nil, fmt.Errorf("%w: ShardCount=%d but no shard fitter is registered (import repro/internal/shardfit)",
				ErrOptions, opts.ShardCount)
		}
		res, sum, err := shardFitter(data, opts)
		if err != nil {
			var inc []resilience.Incident
			if sum != nil {
				inc = sum.Incidents
			}
			return nil, inc, sum, err
		}
		return res, sum.Incidents, sum, nil
	}
	initial, err := startupResume(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	res, incidents, err := RunChain(context.Background(), data, opts.Model, opts, opts.Checkpoint.Dir, initial, nil)
	return res, incidents, nil, err
}

// startupResume loads the checkpoint a resumed single-chain fit starts
// from: nil when Checkpoint.Resume is off or there is nothing to resume
// yet. Unsupervised, a checkpoint that cannot be resumed is an error.
// Supervised, a diverged or damaged one is retired and the fit starts
// fresh: self-healing means starting over and saying so.
func startupResume(opts Options) (*core.Snapshot, error) {
	ck := opts.Checkpoint
	if ck.Dir == "" || !ck.Resume {
		return nil, nil
	}
	st := &FitCheckpointStore{Dir: ck.Dir}
	var sn *core.Snapshot
	var err error
	if opts.Supervise {
		sn, err = st.LoadHealthy()
	} else {
		sn, err = LoadCheckpointFile(ck.Dir)
	}
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, nil
	case opts.Supervise && (errors.Is(err, ErrUnhealthyCheckpoint) || errors.Is(err, ErrCorrupt) ||
		errors.Is(err, core.ErrSnapshot)):
		_ = st.Discard("unusable at startup resume: " + err.Error())
		return nil, nil
	case err != nil:
		return nil, err
	case !opts.Supervise && sn.Seed != opts.Model.Seed:
		// The supervisor resumes a checkpoint under its own seed, since a
		// supervised chain may have reseeded itself. An unsupervised
		// chain never does, so a foreign seed means another fit's
		// checkpoint.
		return nil, fmt.Errorf("pipeline: checkpoint seed %d, config seed %d: %w", sn.Seed, opts.Model.Seed, core.ErrSnapshot)
	}
	if opts.Metrics != nil {
		opts.Metrics.Counter("checkpoint_loads_total",
			"Chain checkpoints loaded for resume.", nil).Inc()
	}
	return sn, nil
}

// RunChain fits one Gibbs chain under the resilience supervisor. Every
// chain runs through it: the single-chain fit and each shard of a
// sharded fit. opts sets the supervision. With Supervise, the chain
// gets a restart budget (MaxRestarts, used as given) and the health
// thresholds (MaxLLDrop, SweepTimeout, at least one live topic), and
// restarts and health events are counted into opts.Metrics. Without
// it the budget is zero, so the chain runs once, exactly as core.Fit
// would. A non-empty ckDir receives a checkpoint every
// Checkpoint.Every sweeps (default 25), the rollback target of a
// restart. initial, when non-nil, is the checkpoint the first attempt
// resumes; capture is resilience.Supervisor.Capture.
func RunChain(ctx context.Context, data *core.Data, cfg core.Config, opts Options, ckDir string,
	initial *core.Snapshot, capture func(*core.Sampler)) (*core.Result, []resilience.Incident, error) {
	sup := &resilience.Supervisor{
		Backoff: resilience.Backoff{
			Base: 50 * time.Millisecond,
			Max:  2 * time.Second,
			Seed: cfg.Seed,
		},
		Capture: capture,
	}
	if ckDir != "" {
		cfg.CheckpointEvery = opts.Checkpoint.Every
		if cfg.CheckpointEvery <= 0 {
			cfg.CheckpointEvery = 25
		}
		sup.Store = &FitCheckpointStore{Dir: ckDir, Metrics: opts.Metrics}
	}
	if opts.Supervise {
		cfg.Health.MaxLLDrop = opts.MaxLLDrop
		cfg.Health.SweepTimeout = opts.SweepTimeout
		if cfg.Health.MinTopics == 0 {
			cfg.Health.MinTopics = 1
		}
		sup.MaxRestarts = opts.MaxRestarts
		if reg := opts.Metrics; reg != nil {
			superviseMetrics(reg, &cfg, sup)
		}
	}
	return sup.RunFit(ctx, data, cfg, initial)
}

// superviseMetrics counts a supervised chain's health events, restarts
// and the sweeps its rollbacks replay into reg.
func superviseMetrics(reg *obs.Registry, cfg *core.Config, sup *resilience.Supervisor) {
	prev := cfg.Health.OnEvent
	cfg.Health.OnEvent = func(ev core.HealthEvent) {
		reg.Counter("fit_health_events_total",
			"Numerical-health violations detected during model fits.",
			obs.Labels{"kind": string(ev.Kind)}).Inc()
		if prev != nil {
			prev(ev)
		}
	}
	restartsC := reg.Counter("fit_restarts_total",
		"Supervised fit attempts restarted after an incident.", nil)
	rollbackC := reg.Counter("fit_rollback_sweeps_total",
		"Sweeps of progress lost to checkpoint rollbacks.", nil)
	sup.OnIncident = func(inc resilience.Incident) {
		if inc.Action == resilience.ActionGaveUp {
			return
		}
		restartsC.Inc()
		if inc.Action == resilience.ActionRollback && inc.ResumedFrom >= 0 && inc.Sweep > inc.ResumedFrom {
			rollbackC.Add(int64(inc.Sweep - inc.ResumedFrom))
		}
	}
}
