// Package shardfit is the corpus-scale fault-tolerant fit: it
// partitions the documents into contiguous shards, fits every shard as
// an independent supervised chain, and merges the shards' sufficient
// statistics (core.ShardStats) into one model.
//
// Fault tolerance is layered:
//
//   - Inside a shard, the resilience supervisor handles divergence —
//     health-aborted attempts roll back to the shard's checkpoint or
//     restart reseeded (Options.Supervise).
//   - Around a shard, the orchestrator retries dead workers with the
//     shard's own seed under jittered backoff, so a killed-and-retried
//     worker reproduces its statistics bit-for-bit and the merged
//     model is byte-identical to an undisturbed run.
//   - A shard that exhausts a straggler timeout is split in half and
//     the halves fitted separately — bounded progress instead of
//     replaying the straggler forever.
//   - Across process crashes, a digest-checked manifest in
//     Options.ShardDir records which shards are durably fitted; a
//     restarted orchestrator refits only the rest and re-merges.
//
// Importing this package registers the orchestrator with the pipeline
// (pipeline.Options.ShardCount > 1); the blank import lives in the
// binaries so the pipeline itself stays cycle-free.
package shardfit

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

func init() {
	pipeline.RegisterShardFitter(Fit)
}

// maxReshardDepth bounds recursive straggler splitting: a shard is
// split at most this many times before its failure is terminal.
const maxReshardDepth = 2

// defaultShardRetries is the orchestrator-level retry budget per shard
// when Options.ShardRetries is zero.
const defaultShardRetries = 2

// Fit is the pipeline.ShardFitter registered at init.
func Fit(data *core.Data, opts pipeline.Options) (*core.Result, *pipeline.ShardFitSummary, error) {
	return (&Orchestrator{Opts: opts}).Fit(context.Background(), data)
}

// Orchestrator runs one sharded fit. The zero value plus Opts is
// ready; the remaining fields are test instrumentation.
type Orchestrator struct {
	Opts pipeline.Options

	// Concurrency bounds simultaneous shard workers (0 = GOMAXPROCS).
	Concurrency int

	// Chaos, when non-nil, may rewrite a shard attempt's config before
	// it runs — the fault-injection hook the kill-K-of-N and straggler
	// tests use (e.g. installing a Health.Perturb that poisons the
	// chain, or a sweep hook that stalls it). Keyed by the shard's
	// document range and the orchestrator-level attempt index. Must be
	// nil in production.
	Chaos func(lo, hi, attempt int, cfg *core.Config)
}

// run is the mutable state of one Fit call.
type run struct {
	o    *Orchestrator
	opts pipeline.Options
	cfg  core.Config // shared shard config: pinned priors, no seed
	data *core.Data
	dir  string

	mu      sync.Mutex
	man     *pipeline.ShardManifest
	results map[int]*core.ShardStats // fitted statistics, keyed by Lo
	sum     pipeline.ShardFitSummary

	started, retried, failed, merged *obs.Counter
	seconds                          *obs.Histogram
}

// Fit executes the sharded fit. On error the summary is still
// returned: shards fitted before the failure are durably recorded
// (when ShardDir is set) and a rerun resumes from them.
func (o *Orchestrator) Fit(ctx context.Context, data *core.Data) (*core.Result, *pipeline.ShardFitSummary, error) {
	opts := o.Opts
	if opts.ShardCount < 1 {
		opts.ShardCount = 1
	}
	cfg := opts.Model
	if cfg.GelPrior == nil || cfg.EmuPrior == nil {
		// The priors must be computed ONCE from the full corpus and
		// shared: per-shard empirical priors would make the shards'
		// accumulators non-mergeable.
		gp, ep, err := core.EmpiricalPriors(data)
		if err != nil {
			return nil, nil, fmt.Errorf("shardfit: priors: %w", err)
		}
		cfg.GelPrior, cfg.EmuPrior = gp, ep
	}
	ranges := core.ShardRanges(data.NumDocs(), opts.ShardCount)
	if len(ranges) == 0 {
		return nil, nil, fmt.Errorf("shardfit: no documents to shard")
	}

	r := &run{
		o:       o,
		opts:    opts,
		cfg:     cfg,
		data:    data,
		dir:     opts.ShardDir,
		results: map[int]*core.ShardStats{},
	}
	if reg := opts.Metrics; reg != nil {
		r.started = reg.Counter("fit_shards_started_total",
			"Shard fit attempts started (first attempts and retries).", nil)
		r.retried = reg.Counter("fit_shards_retried_total",
			"Shard workers retried after dying mid-fit.", nil)
		r.failed = reg.Counter("fit_shards_failed_total",
			"Shards that exhausted every retry and reshard.", nil)
		r.merged = reg.Counter("fit_shards_merged_total",
			"Shards merged into final models.", nil)
		r.seconds = reg.Histogram("fit_shard_seconds",
			"Wall time of successful shard fits.",
			[]float64{0.1, 0.5, 1, 5, 30, 120, 600}, nil)
	}

	if err := r.initManifest(ranges); err != nil {
		return nil, r.summary(), err
	}
	if err := r.fitPending(ctx); err != nil {
		return nil, r.summary(), err
	}
	res, err := r.merge()
	if err != nil {
		return nil, r.summary(), err
	}
	return res, r.summary(), nil
}

// summary returns a stable copy of the running tally.
func (r *run) summary() *pipeline.ShardFitSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sum
	s.ShardCount = len(r.man.Shards)
	s.Incidents = append([]resilience.Incident(nil), r.sum.Incidents...)
	return &s
}

// identity pins the run's parameters for the manifest.
func (r *run) identity() pipeline.ShardIdentity {
	return pipeline.ShardIdentity{
		NumDocs:        r.data.NumDocs(),
		V:              r.data.V,
		K:              r.cfg.K,
		Iterations:     r.cfg.Iterations,
		BurnIn:         r.cfg.BurnIn,
		Seed:           r.cfg.Seed,
		ShardCount:     r.opts.ShardCount,
		Collapsed:      r.cfg.Collapsed,
		Workers:        r.cfg.Workers,
		Alpha:          r.cfg.Alpha,
		Gamma:          r.cfg.Gamma,
		UseEmulsion:    r.cfg.UseEmulsion,
		EmulsionWeight: r.cfg.EmulsionWeight,
	}
}

// initManifest builds the shard plan, resuming from a durable manifest
// when one exists for this exact fit. Fitted shards whose statistics
// files load and digest-verify are reused; anything else — identity
// mismatch, corrupt manifest, damaged stats file — falls back to
// refitting, never to trusting bad state.
func (r *run) initManifest(ranges [][2]int) error {
	fresh := &pipeline.ShardManifest{Identity: r.identity()}
	for _, rg := range ranges {
		fresh.Shards = append(fresh.Shards, pipeline.ShardEntry{
			Lo: rg[0], Hi: rg[1],
			Seed:  seedFor(r.cfg.Seed, rg[0], rg[1], r.data.NumDocs()),
			State: pipeline.ShardPending,
		})
	}
	r.man = fresh
	if r.dir == "" {
		return nil
	}
	prev, err := pipeline.LoadShardManifest(r.dir)
	if err == nil {
		// The ingest watermark outlives any single fit: a grown corpus
		// changes the identity (NumDocs at minimum) and discards the
		// shard rows, but the record of which ingest-log sequences the
		// last promoted model absorbed must carry forward or every
		// re-fit would reset the appended-since-fit counter to the whole
		// log.
		fresh.IngestWatermark = prev.IngestWatermark
		fresh.IngestLastFitUnix = prev.IngestLastFitUnix
	}
	switch {
	case err == nil && prev.Identity == fresh.Identity:
		r.man = prev
		for i := range r.man.Shards {
			e := &r.man.Shards[i]
			if e.State != pipeline.ShardFitted {
				continue
			}
			st, lerr := pipeline.LoadShardStatsFile(r.dir, e.File, e.Digest, r.cfg.GelPrior, r.cfg.EmuPrior)
			if lerr != nil || st.Lo != e.Lo || st.Hi != e.Hi {
				// Damaged or mislabelled statistics: refit this shard.
				e.State = pipeline.ShardPending
				e.File, e.Digest = "", ""
				continue
			}
			r.results[e.Lo] = st
			r.sum.Resumed++
		}
		r.man.Merged = false
	case err == nil:
		// A manifest for a different fit: start over (identity mismatch
		// must never merge foreign statistics).
	case errors.Is(err, fs.ErrNotExist):
		// First run in this directory.
	default:
		// Corrupt or unreadable manifest: refit everything.
	}
	return pipeline.SaveShardManifest(r.dir, r.man)
}

// fitPending fans the pending shards out to bounded workers. The first
// terminal shard failure is returned, but in-flight shards finish (and
// persist) first, so a rerun resumes from maximal progress.
func (r *run) fitPending(ctx context.Context) error {
	var pending []int
	r.mu.Lock()
	for i, e := range r.man.Shards {
		if e.State == pipeline.ShardPending {
			pending = append(pending, i)
		}
	}
	r.mu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	workers := r.o.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	sem := make(chan struct{}, workers)
	errCh := make(chan error, len(pending))
	var wg sync.WaitGroup
	for _, idx := range pending {
		entry := r.entryAt(idx)
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errCh <- r.fitShard(ctx, entry, 0)
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *run) entryAt(i int) pipeline.ShardEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.man.Shards[i]
}

// fitShard drives one shard to durable statistics: retry the worker
// with the shard's own seed under jittered backoff, and — when every
// attempt died to the straggler timeout — split the shard and fit the
// halves (depth-bounded).
func (r *run) fitShard(ctx context.Context, e pipeline.ShardEntry, depth int) error {
	retries := r.opts.ShardRetries
	if retries == 0 {
		retries = defaultShardRetries
	}
	delays := resilience.Backoff{
		Attempts: retries + 1,
		Base:     10 * time.Millisecond,
		Max:      500 * time.Millisecond,
		Seed:     e.Seed,
	}.Delays()
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			r.count(r.retried, &r.sum.Retried)
			time.Sleep(delays[attempt-1])
		}
		st, err := r.runAttempt(ctx, e, attempt)
		if err == nil {
			return r.recordFitted(e, st)
		}
		lastErr = err
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			// A straggler, not a crash: retrying the same seed would stall
			// the same way, so go straight to resharding.
			break
		}
	}
	if errors.Is(lastErr, context.DeadlineExceeded) && ctx.Err() == nil &&
		depth < maxReshardDepth && e.Hi-e.Lo >= 2 {
		return r.reshard(ctx, e, depth)
	}
	if r.failed != nil {
		r.failed.Inc()
	}
	return fmt.Errorf("shardfit: shard [%d,%d) failed after %d attempt(s): %w",
		e.Lo, e.Hi, retries+1, lastErr)
}

// runAttempt runs one shard chain through pipeline.RunChain and
// captures its mergeable statistics. Supervised, the chain checkpoints
// into its own directory under the shard directory.
func (r *run) runAttempt(ctx context.Context, e pipeline.ShardEntry, attempt int) (*core.ShardStats, error) {
	if r.started != nil {
		r.started.Inc()
	}
	start := time.Now()
	cfg := r.cfg
	cfg.Seed = e.Seed
	if r.o.Chaos != nil {
		r.o.Chaos(e.Lo, e.Hi, attempt, &cfg)
	}
	ckDir := ""
	if r.opts.Supervise && r.dir != "" {
		ckDir = shardCheckpointDir(r.dir, e)
	}
	if r.opts.StragglerTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.StragglerTimeout)
		defer cancel()
	}
	var st *core.ShardStats
	_, incidents, err := pipeline.RunChain(ctx, r.data.Slice(e.Lo, e.Hi), cfg, r.opts, ckDir, nil,
		func(s *core.Sampler) { st = s.ShardStats(e.Lo) })
	if len(incidents) > 0 {
		r.mu.Lock()
		r.sum.Incidents = append(r.sum.Incidents, incidents...)
		r.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	if r.seconds != nil {
		r.seconds.Observe(time.Since(start).Seconds())
	}
	return st, nil
}

// recordFitted persists a shard's statistics (when a shard directory
// is configured) and marks its manifest entry fitted.
func (r *run) recordFitted(e pipeline.ShardEntry, st *core.ShardStats) error {
	file, digest := "", ""
	if r.dir != "" {
		var err error
		file = shardStatsName(e)
		digest, err = pipeline.WriteShardStatsFile(r.dir, file, st)
		if err != nil {
			return fmt.Errorf("shardfit: persisting shard [%d,%d): %w", e.Lo, e.Hi, err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results[e.Lo] = st
	r.sum.Fitted++
	for i := range r.man.Shards {
		if r.man.Shards[i].Lo == e.Lo && r.man.Shards[i].Hi == e.Hi {
			r.man.Shards[i].State = pipeline.ShardFitted
			r.man.Shards[i].File = file
			r.man.Shards[i].Digest = digest
			break
		}
	}
	return r.saveManifestLocked()
}

// reshard splits a straggler in half and fits the halves. The halves
// carry their own range-derived seeds, so the result differs from the
// undisturbed plan — resharding trades exact reproducibility for
// progress, and the manifest records that it happened.
func (r *run) reshard(ctx context.Context, e pipeline.ShardEntry, depth int) error {
	mid := e.Lo + (e.Hi-e.Lo)/2
	left := pipeline.ShardEntry{
		Lo: e.Lo, Hi: mid,
		Seed:  seedFor(r.cfg.Seed, e.Lo, mid, r.data.NumDocs()),
		State: pipeline.ShardPending, Resharded: true,
	}
	right := pipeline.ShardEntry{
		Lo: mid, Hi: e.Hi,
		Seed:  seedFor(r.cfg.Seed, mid, e.Hi, r.data.NumDocs()),
		State: pipeline.ShardPending, Resharded: true,
	}
	r.mu.Lock()
	for i := range r.man.Shards {
		if r.man.Shards[i].Lo == e.Lo && r.man.Shards[i].Hi == e.Hi {
			r.man.Shards = append(r.man.Shards[:i],
				append([]pipeline.ShardEntry{left, right}, r.man.Shards[i+1:]...)...)
			break
		}
	}
	r.sum.Resharded++
	err := r.saveManifestLocked()
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if err := r.fitShard(ctx, left, depth+1); err != nil {
		return err
	}
	return r.fitShard(ctx, right, depth+1)
}

// merge assembles the final model from the fitted shards' statistics
// and marks the manifest merged.
func (r *run) merge() (*core.Result, error) {
	r.mu.Lock()
	parts := make([]*core.ShardStats, 0, len(r.man.Shards))
	for _, e := range r.man.Shards {
		st := r.results[e.Lo]
		if st == nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("shardfit: shard [%d,%d) has no statistics to merge", e.Lo, e.Hi)
		}
		parts = append(parts, st)
	}
	r.mu.Unlock()
	sort.Slice(parts, func(i, j int) bool { return parts[i].Lo < parts[j].Lo })
	merged, err := core.MergeShardStats(parts)
	if err != nil {
		return nil, fmt.Errorf("shardfit: merging %d shards: %w", len(parts), err)
	}
	res, err := merged.Result()
	if err != nil {
		return nil, fmt.Errorf("shardfit: assembling merged model: %w", err)
	}
	if r.merged != nil {
		r.merged.Add(int64(len(parts)))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.man.Merged = true
	if err := r.saveManifestLocked(); err != nil {
		return nil, err
	}
	return res, nil
}

// saveManifestLocked persists the manifest when a shard directory is
// configured. Callers hold r.mu.
func (r *run) saveManifestLocked() error {
	if r.dir == "" {
		return nil
	}
	return pipeline.SaveShardManifest(r.dir, r.man)
}

// count bumps a counter metric and its summary tally together.
func (r *run) count(c *obs.Counter, tally *int) {
	if c != nil {
		c.Inc()
	}
	r.mu.Lock()
	*tally++
	r.mu.Unlock()
}

// shardStatsName is the statistics file name for a shard range.
func shardStatsName(e pipeline.ShardEntry) string {
	return fmt.Sprintf("shard-%08d-%08d.stats", e.Lo, e.Hi)
}

// shardCheckpointDir is the per-shard checkpoint directory.
func shardCheckpointDir(dir string, e pipeline.ShardEntry) string {
	return fmt.Sprintf("%s/ck-%08d-%08d", dir, e.Lo, e.Hi)
}

// seedFor derives a shard chain's seed from the run seed and the
// shard's document range. The full range keeps the run seed untouched,
// so ShardCount=1 reproduces the plain fit byte-for-byte; partial
// ranges mix range and seed through a splitmix64 finalizer, giving
// every shard (including reshard splits) a stable, well-separated
// stream that survives orchestrator restarts.
func seedFor(base uint64, lo, hi, nDocs int) uint64 {
	if lo == 0 && hi == nDocs {
		return base
	}
	x := base ^ (uint64(lo)+1)*0x9E3779B97F4A7C15 ^ (uint64(hi)+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
