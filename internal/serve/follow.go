// Registry follower: the piece that turns one server into a fleet
// replica. A Follower polls a storage.Registry for the promoted model
// generation, fetches and integrity-verifies the bundle, and hot-swaps
// it in through the same SwapOutput path an operator reload uses —
// so a rollout is just "promote in the registry; replicas converge".
//
// Degradation contract: a replica that cannot reach the registry or
// its store KEEPS SERVING the model it has. /readyz stays green (the
// model is fine; the control plane is not), /statusz reports the
// degraded state with the last error and how stale the replica's view
// is, and the registry_degraded gauge flips for alerting. Swap safety
// is unchanged: a fetched bundle that fails digest verification,
// whose model part decodes corrupt, or that builds a degenerate kernel
// is refused and the last-good model serves on.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

// FollowOptions configures a registry follower.
type FollowOptions struct {
	// Registry is the generation registry to follow. Required.
	Registry *storage.Registry
	// Interval is the poll cadence. Default 5s.
	Interval time.Duration
	// Pin, when non-zero, pins this replica to a specific generation ID
	// instead of following the promoted one — canary boxes and
	// bisection debugging.
	Pin int64
}

// RegistryStatus is the follower's slice of /statusz.
type RegistryStatus struct {
	// Following is true when a follower is configured.
	Following bool `json:"following"`
	// Degraded is true when the most recent poll could not complete:
	// registry unreachable, manifest corrupt, fetch or swap refused.
	// The replica still serves its last-good model.
	Degraded bool `json:"degraded"`
	// Generation is the registry generation ID currently serving
	// (0 until the first successful swap).
	Generation int64 `json:"generation"`
	// Digest is the serving bundle's content address.
	Digest string `json:"digest,omitempty"`
	// PinnedGeneration echoes FollowOptions.Pin.
	PinnedGeneration int64 `json:"pinned_generation,omitempty"`
	// LastError is the failure that put the replica in degraded mode
	// (kept until the next successful poll).
	LastError string `json:"last_error,omitempty"`
	// LastSyncUnix is when the replica last completed a successful
	// poll (Unix seconds; 0 before the first).
	LastSyncUnix int64 `json:"last_sync_unix,omitempty"`
	// StalenessSeconds is how long ago that was — how out of date this
	// replica's view of the registry may be.
	StalenessSeconds float64 `json:"staleness_seconds,omitempty"`
}

// Follower polls a registry and hot-swaps promoted generations into
// its server. Create with Server.NewFollower, drive with Run (or Poll
// for deterministic tests).
type Follower struct {
	srv      *Server
	reg      *storage.Registry
	interval time.Duration
	pin      int64
	logf     func(format string, args ...any)

	mGeneration *obs.Gauge
	mDegraded   *obs.Gauge
	mFetchFails *obs.Counter
	mSwapsOK    *obs.Counter

	mu       sync.Mutex
	st       RegistryStatus
	lastSync time.Time
}

// NewFollower attaches a registry follower to the server and registers
// its metrics (registry_generation, registry_degraded,
// swap_fetch_failures_total). One follower per server: the follower
// owns the swap cadence, and two pollers racing SwapOutput would make
// generation tracking meaningless.
func (s *Server) NewFollower(opts FollowOptions) (*Follower, error) {
	if opts.Registry == nil {
		return nil, fmt.Errorf("serve: follower needs a registry")
	}
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Second
	}
	f := &Follower{
		srv:      s,
		reg:      opts.Registry,
		interval: opts.Interval,
		pin:      opts.Pin,
		logf:     s.logf,
		mGeneration: s.reg.Gauge("registry_generation",
			"Registry generation ID this replica is serving (0 before the first sync).", nil),
		mDegraded: s.reg.Gauge("registry_degraded",
			"1 while the registry or its store is unreachable and the replica serves its last-good model.", nil),
		mFetchFails: s.reg.Counter("swap_fetch_failures_total",
			"Promoted-generation fetches that failed (store error, digest mismatch, corrupt bundle, refused swap).", nil),
		mSwapsOK: s.reg.Counter("registry_swaps_total",
			"Generations successfully fetched from the registry and swapped in.", nil),
	}
	f.st = RegistryStatus{Following: true, PinnedGeneration: opts.Pin}
	if !s.follower.CompareAndSwap(nil, f) {
		return nil, fmt.Errorf("serve: a follower is already attached")
	}
	return f, nil
}

// Status snapshots the follower state, computing staleness at read
// time so /statusz shows live drift, not drift-as-of-last-poll.
func (f *Follower) Status() RegistryStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.st
	if !f.lastSync.IsZero() {
		st.StalenessSeconds = time.Since(f.lastSync).Seconds()
	}
	return st
}

// Run polls until ctx ends: once immediately (so a replica with a
// reachable registry serves within one fetch of boot, not one
// interval), then on every tick. Poll errors are absorbed into the
// degraded state — the loop itself never stops short of ctx.
func (f *Follower) Run(ctx context.Context) {
	f.Poll(ctx)
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.Poll(ctx)
		}
	}
}

// resolve picks the generation this replica should serve.
func (f *Follower) resolve(ctx context.Context) (storage.Generation, error) {
	if f.pin != 0 {
		return f.reg.Generation(ctx, f.pin)
	}
	return f.reg.Promoted(ctx)
}

// Poll performs one sync step: resolve the target generation, and if
// it differs from what is serving, fetch + verify + swap. Every
// failure leaves the last-good model serving and the follower marked
// degraded; every success (including "already current") clears
// degradation and refreshes the staleness clock. The returned error is
// what /statusz will show — callers running the loop ignore it.
func (f *Follower) Poll(ctx context.Context) error {
	gen, err := f.resolve(ctx)
	if errors.Is(err, storage.ErrNoPromoted) {
		// A reachable registry with no rollout yet is a fleet waiting,
		// not a fleet degraded.
		f.markSynced()
		return nil
	}
	if err != nil {
		f.markDegraded(fmt.Errorf("resolving generation: %w", err))
		return err
	}
	if cur := f.current(); cur.Digest == gen.Digest && cur.ID == gen.ID {
		f.markSynced()
		return nil
	}

	b, err := f.reg.Fetch(ctx, gen)
	if err != nil {
		f.mFetchFails.Inc()
		f.markDegraded(fmt.Errorf("fetching generation %d: %w", gen.ID, err))
		return err
	}
	out, err := pipeline.LoadModel(bytes.NewReader(b))
	if err != nil {
		f.mFetchFails.Inc()
		f.markDegraded(fmt.Errorf("decoding generation %d: %w", gen.ID, err))
		return err
	}
	if err := f.srv.SwapOutput(out); err != nil {
		// The kernel gate refused the model (degenerate covariance and
		// friends): the registry promoted something unservable. Refuse,
		// report, keep the last-good model.
		f.mFetchFails.Inc()
		f.markDegraded(fmt.Errorf("swapping generation %d refused: %w", gen.ID, err))
		return err
	}
	wasDegraded := f.markSwapped(gen)
	f.mSwapsOK.Inc()
	suffix := ""
	if wasDegraded {
		suffix = " (recovered from degraded)"
	}
	f.logf("serve: registry generation %d (%.12s…) swapped in%s", gen.ID, gen.Digest, suffix)
	return nil
}

// current returns the generation serving now.
func (f *Follower) current() storage.Generation {
	f.mu.Lock()
	defer f.mu.Unlock()
	return storage.Generation{ID: f.st.Generation, Digest: f.st.Digest}
}

// markDegraded records a failed poll. The serving generation fields
// are left alone: the last-good model is still up.
func (f *Follower) markDegraded(err error) {
	f.mu.Lock()
	if !f.st.Degraded {
		f.logf("serve: registry degraded; serving last-good generation %d: %v", f.st.Generation, err)
	}
	f.st.Degraded = true
	f.st.LastError = err.Error()
	f.mu.Unlock()
	f.mDegraded.Set(1)
}

// markSynced records a successful poll that required no swap.
func (f *Follower) markSynced() {
	f.mu.Lock()
	if f.st.Degraded {
		f.logf("serve: registry reachable again; generation %d current", f.st.Generation)
	}
	f.st.Degraded = false
	f.st.LastError = ""
	f.lastSync = time.Now()
	f.st.LastSyncUnix = f.lastSync.Unix()
	f.mu.Unlock()
	f.mDegraded.Set(0)
}

// markSwapped records a successful fetch+swap and reports whether the
// follower was degraded before it.
func (f *Follower) markSwapped(gen storage.Generation) bool {
	f.mu.Lock()
	was := f.st.Degraded
	f.st.Degraded = false
	f.st.LastError = ""
	f.st.Generation = gen.ID
	f.st.Digest = gen.Digest
	f.lastSync = time.Now()
	f.st.LastSyncUnix = f.lastSync.Unix()
	f.mu.Unlock()
	f.mDegraded.Set(0)
	f.mGeneration.Set(float64(gen.ID))
	return was
}
