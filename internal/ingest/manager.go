// Manager: the serving-side face of online ingestion. It owns the WAL,
// tracks the appended-since-fit watermark (persisted beside the WAL's
// segments, see pipeline.SaveIngestWatermark), and publishes the
// metrics and status the satellite endpoints expose.
package ingest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/recipe"
)

// Refit states, as reported in /statusz.
const (
	RefitIdle    = "idle"
	RefitRunning = "running"
	RefitFailed  = "failed"
)

// ManagerOptions configures OpenManager.
type ManagerOptions struct {
	// Dir is the WAL directory, which also holds the ingest watermark
	// (pipeline.IngestWatermarkFile). Required.
	Dir string
	// SegmentBytes is the WAL rotation threshold.
	SegmentBytes int64
	// Metrics registers the ingest metric family when non-nil.
	Metrics *obs.Registry
	// Clock is a test hook; time.Now when nil.
	Clock func() time.Time
}

// Status is the /statusz ingest block.
type Status struct {
	WAL Stats `json:"wal"`
	// Watermark is the highest sequence the promoted model has learned
	// from.
	Watermark uint64 `json:"watermark"`
	// RecordsSinceFit is LastSeq − Watermark: accepted records the
	// serving model annotates only via fold-in.
	RecordsSinceFit uint64 `json:"records_since_fit"`
	// RefitState is RefitIdle, RefitRunning, or RefitFailed.
	RefitState string `json:"refit_state"`
	// RefitError is the last re-fit failure, cleared by the next
	// success.
	RefitError string `json:"refit_error,omitempty"`
	// LastPromoted is the generation ID the last successful re-fit
	// promoted; 0 before the first.
	LastPromoted int64 `json:"last_promoted,omitempty"`
	// LastFitUnix is when that promotion happened.
	LastFitUnix int64 `json:"last_fit_unix,omitempty"`
	// StalenessSeconds is how long the oldest unfitted accepted record
	// has been waiting; 0 when the model is fully caught up.
	StalenessSeconds float64 `json:"staleness_seconds,omitempty"`
}

// Manager wires the WAL to the watermark and the metric family. All
// methods are safe for concurrent use.
type Manager struct {
	wal   *WAL
	dir   string
	clock func() time.Time

	watermark    atomic.Uint64
	lastPromoted atomic.Int64
	lastFitUnix  atomic.Int64

	mu         sync.Mutex
	refitState string
	refitErr   string

	appended *obs.Counter
	dups     *obs.Counter
	refitOK  *obs.Counter
	refitBad *obs.Counter
}

// OpenManager recovers the WAL and the persisted watermark.
func OpenManager(opts ManagerOptions) (*Manager, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("ingest: ManagerOptions.Dir required")
	}
	w, err := Open(opts.Dir, Options{SegmentBytes: opts.SegmentBytes})
	if err != nil {
		return nil, err
	}
	m := &Manager{
		wal:        w,
		dir:        opts.Dir,
		clock:      opts.Clock,
		refitState: RefitIdle,
	}
	if m.clock == nil {
		m.clock = time.Now
	}
	// One clock for both halves: record timestamps (the WAL's) and the
	// staleness arithmetic (the manager's) must agree under test clocks.
	w.now = m.clock
	// Both halves of the persisted state matter: the watermark sizes the
	// refit trigger, and the last-fit time floors the staleness clock —
	// without it, a restart with any pending record would measure
	// staleness from the oldest record in the whole WAL (already fitted,
	// possibly days old) and fire the age trigger spuriously.
	seq, fitUnix := pipeline.LoadIngestState(opts.Dir)
	m.watermark.Store(seq)
	m.lastFitUnix.Store(fitUnix)
	if reg := opts.Metrics; reg != nil {
		// The streaming fit pass owns the unlabeled ingest_records_total
		// series; the WAL's arrivals are a distinct source.
		m.appended = reg.Counter("ingest_records_total",
			"Recipes durably appended to the ingest WAL.", obs.Labels{"source": "wal"})
		m.dups = reg.Counter("ingest_duplicate_records_total",
			"Ingest submissions deduplicated against the WAL by canonical hash.", nil)
		m.refitOK = reg.Counter("refit_runs_total",
			"Background re-fit attempts by outcome.", obs.Labels{"outcome": "ok"})
		m.refitBad = reg.Counter("refit_runs_total",
			"Background re-fit attempts by outcome.", obs.Labels{"outcome": "failed"})
		reg.GaugeFunc("ingest_wal_bytes", "Total bytes in the ingest WAL.", nil,
			func() float64 { return float64(m.wal.Stats().Bytes) })
		reg.GaugeFunc("ingest_wal_segments", "Segment files in the ingest WAL.", nil,
			func() float64 { return float64(m.wal.Stats().Segments) })
		reg.GaugeFunc("ingest_watermark", "Highest WAL sequence reflected in the fitted model.", nil,
			func() float64 { return float64(m.watermark.Load()) })
		reg.GaugeFunc("ingest_records_since_fit",
			"Accepted records the serving model has not been re-fitted on.", nil,
			func() float64 { return float64(m.RecordsSinceFit()) })
		reg.GaugeFunc("model_staleness_seconds",
			"Age of the oldest accepted record not yet covered by a re-fit.", nil,
			func() float64 { return m.staleness().Seconds() })
	}
	return m, nil
}

// Dir is the WAL directory (the refit controller replays it).
func (m *Manager) Dir() string { return m.dir }

// WAL exposes the underlying log.
func (m *Manager) WAL() *WAL { return m.wal }

// Append durably logs rec (already Resolved) and returns the ack.
func (m *Manager) Append(rec *recipe.Recipe) (Ack, error) {
	ack, err := m.wal.Append(rec)
	if err != nil {
		return ack, err
	}
	switch {
	case ack.Duplicate:
		if m.dups != nil {
			m.dups.Inc()
		}
	default:
		if m.appended != nil {
			m.appended.Inc()
		}
	}
	return ack, nil
}

// Watermark is the highest sequence the fitted model covers.
func (m *Manager) Watermark() uint64 { return m.watermark.Load() }

// RecordsSinceFit counts accepted records past the watermark. Sequence
// numbers are dense (duplicates allocate none), so the subtraction is
// an exact count.
func (m *Manager) RecordsSinceFit() uint64 {
	last := m.wal.LastSeq()
	wm := m.watermark.Load()
	if last <= wm {
		return 0
	}
	return last - wm
}

// staleness is how long re-fit work has been pending: zero when caught
// up, otherwise the age of the oldest record plausibly past the
// watermark (bounded below by the last promotion time — records fitted
// then cannot be stale).
func (m *Manager) staleness() time.Duration {
	if m.RecordsSinceFit() == 0 {
		return 0
	}
	since := m.wal.Stats().OldestUnix
	if fit := m.lastFitUnix.Load(); fit > since {
		since = fit
	}
	if since == 0 {
		return 0
	}
	d := m.clock().Sub(time.Unix(since, 0))
	if d < 0 {
		return 0
	}
	return d
}

// beginRefit flips the status to running. Reported, not enforced — the
// Refitter serializes its own runs.
func (m *Manager) beginRefit() {
	m.mu.Lock()
	m.refitState = RefitRunning
	m.mu.Unlock()
}

// failRefit records a re-fit failure; serving continues on the old
// generation and /statusz shows the degraded state.
func (m *Manager) failRefit(err error) {
	if m.refitBad != nil {
		m.refitBad.Inc()
	}
	m.mu.Lock()
	m.refitState = RefitFailed
	m.refitErr = err.Error()
	m.mu.Unlock()
}

// CommitFit advances the watermark to seq and records the promoted
// generation, persisting both in the WAL directory.
// The watermark write is the LAST step of a re-fit — a crash before it
// re-runs an idempotent fit+publish+promote chain, never loses
// records. A failed persist does not undo the commit: the promotion
// already happened, so the in-memory watermark, counters, and status
// all advance regardless (only the refit error notes the lag), and the
// save error is returned for the caller to log. The next successful
// save heals the on-disk copy.
func (m *Manager) CommitFit(seq uint64, generation int64) error {
	now := m.clock().Unix()
	saveErr := pipeline.SaveIngestWatermark(m.dir, seq, now)
	if wm := m.watermark.Load(); seq > wm {
		m.watermark.Store(seq)
	}
	m.lastPromoted.Store(generation)
	m.lastFitUnix.Store(now)
	if m.refitOK != nil {
		m.refitOK.Inc()
	}
	m.mu.Lock()
	m.refitState = RefitIdle
	if saveErr != nil {
		m.refitErr = fmt.Sprintf("promotion of generation %d succeeded but the watermark save lagged: %v", generation, saveErr)
	} else {
		m.refitErr = ""
	}
	m.mu.Unlock()
	return saveErr
}

// Status snapshots the ingest block for /statusz.
func (m *Manager) Status() Status {
	m.mu.Lock()
	state, refitErr := m.refitState, m.refitErr
	m.mu.Unlock()
	return Status{
		WAL:              m.wal.Stats(),
		Watermark:        m.watermark.Load(),
		RecordsSinceFit:  m.RecordsSinceFit(),
		RefitState:       state,
		RefitError:       refitErr,
		LastPromoted:     m.lastPromoted.Load(),
		LastFitUnix:      m.lastFitUnix.Load(),
		StalenessSeconds: m.staleness().Seconds(),
	}
}

// Close closes the WAL.
func (m *Manager) Close() error { return m.wal.Close() }
