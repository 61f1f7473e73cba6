// The background re-fit controller: watches the appended-since-fit
// watermark, and when enough records (or enough age) accumulate,
// streams base corpus + WAL through the pipeline, publishes the merged
// bundle to the registry, promotes it, and advances the watermark —
// each step idempotent, so a crash at any point re-converges on the
// next run instead of losing or double-counting records.
package ingest

import (
	"context"
	"fmt"
	"time"

	"repro/internal/pipeline"
	"repro/internal/resilience"
	"repro/internal/storage"
)

// RefitOptions configures a Refitter.
type RefitOptions struct {
	// Manager supplies the WAL, watermark, and status/metrics plumbing.
	// Required.
	Manager *Manager
	// Base is the frozen corpus the WAL grows on top of (JSONL — a
	// FileSource or GeneratedSource). Nil fits from the WAL alone.
	Base pipeline.StreamSource
	// Pipeline is the fit configuration template. Supervise and
	// ShardCount flow through unchanged, so a multi-worker, supervised
	// re-fit is just the flags the batch path already takes.
	Pipeline pipeline.Options
	// Registry receives the merged bundle. Required.
	Registry *storage.Registry
	// MinRecords triggers a re-fit once this many accepted records sit
	// past the watermark. Default 1000.
	MinRecords uint64
	// MaxAge triggers a re-fit once the oldest unfitted record is this
	// old, regardless of count. Zero disables the age trigger.
	MaxAge time.Duration
	// Interval is the trigger poll cadence in Run. Default 15s.
	Interval time.Duration
	// Backoff spaces retries after a failed re-fit, so a persistently
	// failing fit cannot hot-loop. Default: 4 attempts from 30s.
	Backoff resilience.Backoff
	// Note annotates published generations ("online refit").
	Note string
	// OnPromoted runs after a successful promotion with the fit output
	// and the promoted generation — the local serving process uses it
	// to swap immediately instead of waiting for its follower poll.
	OnPromoted func(*pipeline.Output, storage.Generation)
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Refitter runs the watermark-triggered re-fit loop.
type Refitter struct {
	opts  RefitOptions
	fails int
}

// NewRefitter validates opts.
func NewRefitter(opts RefitOptions) (*Refitter, error) {
	if opts.Manager == nil {
		return nil, fmt.Errorf("ingest: RefitOptions.Manager required")
	}
	if opts.Registry == nil {
		return nil, fmt.Errorf("ingest: RefitOptions.Registry required")
	}
	if opts.MinRecords == 0 {
		opts.MinRecords = 1000
	}
	if opts.Interval <= 0 {
		opts.Interval = 15 * time.Second
	}
	if opts.Backoff.Attempts == 0 {
		opts.Backoff = resilience.Backoff{Attempts: 4, Base: 30 * time.Second, Max: 5 * time.Minute}
	}
	if opts.Note == "" {
		opts.Note = "online refit"
	}
	return &Refitter{opts: opts}, nil
}

func (r *Refitter) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// Due reports whether the trigger condition holds.
func (r *Refitter) Due() bool {
	m := r.opts.Manager
	pending := m.RecordsSinceFit()
	if pending == 0 {
		return false
	}
	if pending >= r.opts.MinRecords {
		return true
	}
	return r.opts.MaxAge > 0 && m.staleness() >= r.opts.MaxAge
}

// Run polls the trigger until ctx ends. One re-fit at a time; failures
// back off per opts.Backoff while serving continues on the promoted
// generation.
func (r *Refitter) Run(ctx context.Context) {
	t := time.NewTicker(r.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if !r.Due() {
			continue
		}
		if _, _, err := r.RefitOnce(ctx); err != nil {
			r.logf("ingest: refit failed (attempt %d): %v", r.fails, err)
			if !sleepCtx(ctx, r.backoffDelay()) {
				return
			}
		}
	}
}

// backoffDelay picks the post-failure pause from the backoff schedule,
// saturating at its last (largest) delay.
func (r *Refitter) backoffDelay() time.Duration {
	delays := r.opts.Backoff.Delays()
	if len(delays) == 0 {
		return r.opts.Interval
	}
	i := r.fails - 1
	if i < 0 {
		i = 0
	}
	if i >= len(delays) {
		i = len(delays) - 1
	}
	return delays[i]
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// RefitOnce executes one full re-fit cycle against a frozen WAL
// snapshot: fit (base + WAL ≤ snapshot), publish, promote, advance
// watermark. Every step is idempotent — the stream source replays
// identical bytes, the fit is deterministic,
// Publish content-addresses, Promote no-ops on re-promotion — so a
// crash between any two steps makes the next run converge on the same
// generation rather than fork history. Returns the promoted
// generation and whether a re-fit actually ran.
func (r *Refitter) RefitOnce(ctx context.Context) (storage.Generation, bool, error) {
	m := r.opts.Manager
	snapshot := m.wal.LastSeq()
	if snapshot <= m.Watermark() {
		return storage.Generation{}, false, nil
	}
	m.beginRefit()
	gen, err := r.refitTo(ctx, snapshot)
	if err != nil {
		r.fails++
		m.failRefit(err)
		return storage.Generation{}, true, err
	}
	r.fails = 0
	if err := m.CommitFit(snapshot, gen.ID); err != nil {
		// The model IS promoted; only the watermark lagged. The next
		// cycle refits a superset and re-converges — log, don't fail the
		// promotion that already happened.
		r.logf("ingest: watermark save failed after promoting generation %d: %v", gen.ID, err)
	}
	r.logf("ingest: refit promoted generation %d (watermark %d)", gen.ID, snapshot)
	return gen, true, nil
}

// refitTo runs fit → publish → promote for one snapshot.
func (r *Refitter) refitTo(ctx context.Context, snapshot uint64) (storage.Generation, error) {
	src := CombinedSource(r.opts.Base, r.opts.Manager.Dir(), snapshot)
	out, err := pipeline.RunStream(src, r.opts.Pipeline)
	if err != nil {
		return storage.Generation{}, fmt.Errorf("refit fit: %w", err)
	}
	blob, digest, err := out.EncodeBundle()
	if err != nil {
		return storage.Generation{}, fmt.Errorf("refit encode: %w", err)
	}
	gen, err := r.opts.Registry.Publish(ctx, blob, fmt.Sprintf("%s (seq %d)", r.opts.Note, snapshot))
	if err != nil {
		return storage.Generation{}, fmt.Errorf("refit publish: %w", err)
	}
	if err := r.opts.Registry.Promote(ctx, gen.ID); err != nil {
		return storage.Generation{}, fmt.Errorf("refit promote: %w", err)
	}
	r.logf("ingest: published bundle %.12s… as generation %d", digest, gen.ID)
	if r.opts.OnPromoted != nil {
		r.opts.OnPromoted(out, gen)
	}
	return gen, nil
}
