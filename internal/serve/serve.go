// Package serve exposes the texture annotator over HTTP — the shape a
// recipe-sharing site would deploy: POST a recipe, get its texture
// card; browse the fitted topics.
//
// The serving runtime is built for degradation, not just the happy
// path: a pool of independent fold-in annotators bounds concurrency,
// an admission gate sheds overload with 429 + Retry-After instead of
// queueing it, every request carries a deadline that propagates down
// into the Gibbs sweeps, panics become 500s without killing the
// process, and liveness (/healthz) is split from readiness (/readyz)
// so a load balancer can route around a server that is still fitting
// its model or draining for shutdown.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/annotate"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/linkage"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/recipe"
	"repro/internal/resilience"
)

// Options tunes the serving runtime. The zero value is not useful;
// start from DefaultOptions.
type Options struct {
	// Pool is the number of independent fold-in annotators — the hard
	// bound on concurrent annotations.
	Pool int
	// AdmitWait is how long an /annotate request may wait for a pool
	// slot before it is shed with 429 Too Many Requests.
	AdmitWait time.Duration
	// RequestTimeout bounds one request end to end; past it the
	// fold-in chain is abandoned and the client gets 504.
	// Zero disables the deadline.
	RequestTimeout time.Duration
	// MaxBody caps the /annotate request body; larger bodies get 413.
	MaxBody int64
	// MaxBatch caps the recipes per /annotate/batch request; larger
	// batches get 413 (the batch body may total MaxBody × MaxBatch
	// bytes). Default 64 when unset.
	MaxBatch int
	// FoldInIters overrides the Gibbs sweeps per annotation when
	// positive (the annotator default otherwise).
	FoldInIters int
	// Cache enables the request-level annotation cache: responses are
	// stored in a bounded LRU keyed by (model generation, recipe
	// content hash) and repeats are served without a pool slot or a
	// Gibbs sweep, with concurrent identical misses collapsed onto one
	// fold-in. Off by default so a server stays a pure fold-in engine
	// unless asked; cmd/textureserver turns it on.
	Cache bool
	// CacheSize caps the cached responses (with Cache);
	// DefaultCacheSize when zero or negative.
	CacheSize int
	// Seed drives the pool's fold-in chains; pool member i uses
	// Seed+i so concurrent chains are decorrelated but reproducible.
	Seed uint64
	// Injector, when non-nil, injects deterministic faults into the
	// annotate path (op "annotate") — the test hook that makes the
	// degraded paths exercisable without real overload.
	Injector resilience.Injector
	// Logf sinks one-line diagnostics; log.Printf when nil.
	Logf func(format string, args ...any)

	// Ingest, when non-nil, mounts POST /ingest and POST /ingest/batch:
	// accepted recipes are durably appended to the manager's WAL before
	// the request is acknowledged, then opportunistically folded into
	// the live model (cache warm) so they are immediately annotatable.
	Ingest *ingest.Manager

	// Reload, when non-nil, produces a fresh pipeline output for
	// POST /admin/reload and Server.Reload — typically by re-reading a
	// bundle file. The endpoint is only mounted when this is set.
	Reload func(ctx context.Context) (*pipeline.Output, error)
	// AdminToken guards POST /admin/reload: requests must carry it in
	// the X-Admin-Token header. When empty the endpoint accepts any
	// caller — only sensible when the port itself is private.
	AdminToken string

	// Metrics is the registry the server records into and exposes on
	// GET /metrics. A private registry is created when nil; pass one in
	// to share it with the fitting pipeline and sampler telemetry.
	Metrics *obs.Registry
	// AccessLog, when non-nil, emits one structured line per request.
	AccessLog *slog.Logger
	// Pprof mounts net/http/pprof under GET /debug/pprof/ — off by
	// default because profiling endpoints on a public port are a
	// denial-of-service invitation.
	Pprof bool
}

// DefaultCacheSize is the annotation-cache capacity when Options.Cache
// is set without a size: at ~600 bytes per encoded card this bounds
// the cache around 2.5 MB — cheap insurance against a hot key.
const DefaultCacheSize = 4096

// DefaultOptions is the production-shaped configuration.
func DefaultOptions() Options {
	return Options{
		Pool:           runtime.GOMAXPROCS(0),
		AdmitWait:      250 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
		MaxBody:        1 << 20,
		MaxBatch:       64,
		Seed:           1,
	}
}

// Server handles texture annotation requests on a fitted model.
type Server struct {
	opts Options
	logf func(format string, args ...any)
	gate *resilience.Gate

	mu   sync.RWMutex // guards out and pool installation
	out  *pipeline.Output
	pool chan *annotate.Annotator

	// cache is the request-level annotation cache; nil when
	// Options.Cache is off.
	cache *annotCache

	// reloadMu serializes Reload calls so two concurrent /admin/reload
	// requests cannot interleave building and installing pools.
	reloadMu sync.Mutex

	ready      atomic.Bool
	draining   atomic.Bool
	generation atomic.Int64 // bumped on every model install/swap

	// follower is the attached registry follower, nil when this server
	// is not part of a registry-driven fleet. Set once by NewFollower.
	follower atomic.Pointer[Follower]

	reg             *obs.Registry
	mServed         *obs.Counter
	mPanics         *obs.Counter
	mTimeouts       *obs.Counter
	mFoldinSeconds  *obs.Histogram
	mFoldinSweeps   *obs.Counter
	mFoldinCanceled *obs.Counter
	mSwaps          *obs.Counter
	mSwapTime       *obs.Gauge
	mBatches        *obs.Counter
}

// NewPending builds a server with no model yet: /healthz answers,
// everything model-backed answers 503 until SetOutput installs a
// fitted pipeline. This is what lets the process bind its port
// immediately and fit in the background.
func NewPending(opts Options) *Server {
	if opts.Pool < 1 {
		opts.Pool = 1
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = 1 << 20
	}
	if opts.MaxBatch < 1 {
		opts.MaxBatch = 64
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = DefaultCacheSize
	}
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		opts: opts,
		logf: logf,
		gate: resilience.NewGate(opts.Pool, opts.AdmitWait),
		reg:  reg,

		mServed: reg.Counter("serve_annotate_served_total", "Annotations served successfully.", nil),
		mPanics: reg.Counter("serve_panics_total", "Handler panics recovered into 500s.", nil),
		mTimeouts: reg.Counter("serve_timeouts_total",
			"Requests that ran out of deadline (admission wait or fold-in).", nil),
		mFoldinSeconds: reg.Histogram("annotate_foldin_seconds",
			"Fold-in Gibbs chain wall time per annotation.", nil, nil),
		mFoldinSweeps: reg.Counter("annotate_foldin_sweeps_total",
			"Fold-in Gibbs sweeps run, including partial canceled chains.", nil),
		mFoldinCanceled: reg.Counter("annotate_foldin_canceled_total",
			"Fold-in chains abandoned by context cancellation.", nil),
		mSwaps: reg.Counter("serve_model_swaps_total",
			"Model installs and live swaps performed.", nil),
		mSwapTime: reg.Gauge("serve_model_swap_timestamp_seconds",
			"Unix time of the most recent model install or swap.", nil),
		mBatches: reg.Counter("serve_annotate_batches_total",
			"Batch annotation requests completed (items count into serve_annotate_served_total).", nil),
	}
	reg.GaugeFunc("serve_model_generation", "Monotonic model generation; 0 until the first install.", nil,
		func() float64 { return float64(s.generation.Load()) })
	reg.CounterFunc("serve_shed_total", "Requests shed by the admission gate.", nil, s.gate.Shed)
	reg.GaugeFunc("serve_in_flight", "Requests currently holding a pool slot.", nil,
		func() float64 { return float64(s.gate.InUse()) })
	reg.GaugeFunc("serve_pool_size", "Configured annotator pool size.", nil,
		func() float64 { return float64(s.opts.Pool) })
	reg.GaugeFunc("serve_ready", "1 when the model is fitted and not draining.", nil,
		func() float64 {
			if s.Ready() {
				return 1
			}
			return 0
		})
	if opts.Cache {
		s.cache = newAnnotCache(opts.CacheSize, reg)
	}
	return s
}

// Metrics returns the server's registry, so callers can record the
// fitting pipeline and sampler telemetry into the same /metrics page.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// buildPool constructs a full annotator pool over out, wiring fold-in
// telemetry before the model is published to handlers so every
// annotation is recorded. Concurrent fold-ins invoke the hook
// concurrently; the metrics are atomic. An unfitted output has no
// model; annotate.New rejects it.
func (s *Server) buildPool(out *pipeline.Output) (chan *annotate.Annotator, error) {
	if out.Model != nil {
		// Build the fold-in kernel before serving so a degenerate model
		// fails the install (not the first request) and no request pays
		// the per-model precomputation.
		if _, err := out.Model.BuildKernel(); err != nil {
			return nil, fmt.Errorf("serve: fold-in kernel: %w", err)
		}
		out.Model.FoldInHook = func(st core.FoldInStats) {
			s.mFoldinSeconds.Observe(st.Total.Seconds())
			s.mFoldinSweeps.Add(int64(st.Sweeps))
			if st.Canceled {
				s.mFoldinCanceled.Inc()
			}
		}
	}
	pool := make(chan *annotate.Annotator, s.opts.Pool)
	for i := 0; i < s.opts.Pool; i++ {
		ann, err := annotate.New(out)
		if err != nil {
			return nil, err
		}
		ann.Seed = s.opts.Seed + uint64(i)
		if s.opts.FoldInIters > 0 {
			ann.FoldInIters = s.opts.FoldInIters
		}
		pool <- ann
	}
	return pool, nil
}

// install publishes the model and its pool, bumps the generation, and
// flips the server ready.
func (s *Server) install(out *pipeline.Output, pool chan *annotate.Annotator) {
	s.out = out
	s.pool = pool
	gen := s.generation.Add(1)
	s.mSwaps.Inc()
	s.mSwapTime.Set(float64(time.Now().UnixNano()) / 1e9)
	s.ready.Store(true)
	if gen > 1 {
		s.logf("serve: model swapped in, generation %d (K=%d, %d docs)", gen, out.Model.K, out.Recipes())
	}
}

// SetOutput installs the fitted model, builds the annotator pool, and
// flips the server ready. It may be called once; use SwapOutput to
// replace a model that is already serving.
func (s *Server) SetOutput(out *pipeline.Output) error {
	pool, err := s.buildPool(out)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.out != nil {
		return fmt.Errorf("serve: model already installed")
	}
	s.install(out, pool)
	return nil
}

// SwapOutput atomically replaces the serving model under live traffic.
// A fresh annotator pool is built against the new model before the
// switch, so the swap itself is a pointer flip under the lock: requests
// admitted after it fold in on the new model, while in-flight requests
// finish on the pool they checked out from and return their annotators
// there — the old pool drains naturally and is collected once the last
// borrower lets go. No request is dropped or errored by a swap.
//
// Pass a freshly constructed Output (a new fit, or a LoadModel or
// LoadBundle result):
// installing telemetry mutates out.Model, so re-swapping the object
// that is currently serving would race with live fold-ins.
func (s *Server) SwapOutput(out *pipeline.Output) error {
	pool, err := s.buildPool(out)
	if err != nil {
		return fmt.Errorf("serve: building pool for swap: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.install(out, pool)
	return nil
}

// Reload runs Options.Reload and swaps the result in, serializing
// concurrent calls (SIGHUP and /admin/reload can race; only one
// rebuild runs at a time). Returns the generation now serving.
func (s *Server) Reload(ctx context.Context) (int64, error) {
	if s.opts.Reload == nil {
		return 0, fmt.Errorf("serve: no reload source configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	out, err := s.opts.Reload(ctx)
	if err != nil {
		return 0, fmt.Errorf("serve: reload source: %w", err)
	}
	if err := s.SwapOutput(out); err != nil {
		return 0, err
	}
	return s.generation.Load(), nil
}

// New builds a ready server from a fitted pipeline output with
// default options.
func New(out *pipeline.Output) (*Server, error) {
	return NewWithOptions(out, DefaultOptions())
}

// NewWithOptions builds a ready server from a fitted pipeline output.
func NewWithOptions(out *pipeline.Output, opts Options) (*Server, error) {
	s := NewPending(opts)
	if err := s.SetOutput(out); err != nil {
		return nil, err
	}
	return s, nil
}

// BeginDrain flips readiness off ahead of shutdown: /readyz answers
// 503 so load balancers stop routing here, while in-flight and
// already-routed requests still complete.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Ready reports whether the model is installed and the server is not
// draining.
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// Stats is a point-in-time snapshot of the serving runtime, served on
// /statusz.
type Stats struct {
	Ready      bool  `json:"ready"`
	Draining   bool  `json:"draining"`
	Pool       int   `json:"pool"`
	InFlight   int   `json:"in_flight"`
	Served     int64 `json:"served"`
	Shed       int64 `json:"shed"`
	Panics     int64 `json:"panics"`
	Timeouts   int64 `json:"timeouts"`
	Generation int64 `json:"generation"`
	// LastFitIncidents is the installed model's supervised-fit recovery
	// history (rollbacks, reseeded restarts). Empty when the fit never
	// needed recovery or supervision was off.
	LastFitIncidents []resilience.Incident `json:"last_fit_incidents,omitempty"`
	// RegistryDegraded is true while the registry follower cannot reach
	// its registry or store and the replica serves its last-good model.
	// Always false when no follower is attached (see Registry).
	RegistryDegraded bool `json:"registry_degraded"`
	// Registry is the registry-follower detail (generation, digest,
	// last error, staleness); nil when this server does not follow one.
	Registry *RegistryStatus `json:"registry,omitempty"`
	// Cache is the request-level annotation cache state; nil when the
	// cache is disabled.
	Cache *CacheStats `json:"cache,omitempty"`
	// Ingest is the online-ingestion state (WAL size, watermark,
	// records since fit, refit state); nil when ingestion is off.
	Ingest *ingest.Status `json:"ingest,omitempty"`
}

// CacheStats is the point-in-time state of the annotation cache on
// /statusz.
type CacheStats struct {
	Capacity  int   `json:"capacity"`
	Size      int   `json:"size"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Waiters   int64 `json:"inflight_waiters"`
	Evictions int64 `json:"evictions"`
	// Leaders is the number of single-flight fold-ins running right now.
	Leaders int `json:"inflight_leaders"`
}

// Stats snapshots the runtime counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Ready:      s.ready.Load(),
		Draining:   s.draining.Load(),
		Pool:       s.opts.Pool,
		InFlight:   s.gate.InUse(),
		Served:     s.mServed.Value(),
		Shed:       s.gate.Shed(),
		Panics:     s.mPanics.Value(),
		Timeouts:   s.mTimeouts.Value(),
		Generation: s.generation.Load(),
	}
	s.mu.RLock()
	if s.out != nil {
		st.LastFitIncidents = s.out.FitIncidents
	}
	s.mu.RUnlock()
	if f := s.follower.Load(); f != nil {
		rs := f.Status()
		st.Registry = &rs
		st.RegistryDegraded = rs.Degraded
	}
	if m := s.opts.Ingest; m != nil {
		is := m.Status()
		st.Ingest = &is
	}
	if c := s.cache; c != nil {
		st.Cache = &CacheStats{
			Capacity:  c.capacity,
			Size:      c.Len(),
			Hits:      c.hits.Value(),
			Misses:    c.misses.Value(),
			Waiters:   c.waiters.Value(),
			Evictions: c.evictions.Value(),
			Leaders:   c.Leaders(),
		}
	}
	return st
}

// Handler returns the HTTP routes wrapped in the resilience
// middleware stack:
//
//	POST /annotate        body: one recipe JSON object → texture card JSON
//	POST /annotate/batch  body: {"recipes": [...]} → index-aligned results
//	POST /ingest          body: one recipe JSON object → durable WAL ack
//	POST /ingest/batch    body: {"recipes": [...]} → index-aligned acks
//	GET  /topics     the fitted topics with gel doses and top terms
//	GET  /healthz    liveness: the process is up
//	GET  /readyz     readiness: the model is fitted and not draining
//	GET  /statusz    runtime counters (pool, shed, panics, …)
//	GET  /metrics    Prometheus text exposition of the registry
//
// When Options.Pprof is set, net/http/pprof is mounted under
// GET /debug/pprof/. Every model-facing route is instrumented with a
// per-route latency histogram and status-class counters; the route
// label is the static pattern, never the raw URL, so cardinality
// stays bounded.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.Instrument(s.reg, label, h))
	}
	route("POST /annotate", "/annotate", s.handleAnnotate)
	route("POST /annotate/batch", "/annotate/batch", s.handleAnnotateBatch)
	route("GET /topics", "/topics", s.handleTopics)
	if s.opts.Ingest != nil {
		route("POST /ingest", "/ingest", s.handleIngest)
		route("POST /ingest/batch", "/ingest/batch", s.handleIngestBatch)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, "/statusz", s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.WritePrometheus(w); err != nil {
			s.logf("serve: /metrics: %v", err)
		}
	})
	if s.opts.Reload != nil {
		route("POST /admin/reload", "/admin/reload", s.handleAdminReload)
	}
	if s.opts.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	h := resilience.Timeout(s.opts.RequestTimeout, mux)
	h = resilience.Recover(h, func(format string, args ...any) {
		s.mPanics.Inc()
		s.logf(format, args...)
	})
	// Access log outermost so a panicking or timed-out request still
	// produces one line with the status the client actually saw.
	return obs.AccessLog(s.opts.AccessLog, h)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case !s.ready.Load():
		http.Error(w, "model not fitted yet", http.StatusServiceUnavailable)
	default:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	}
}

// handleAdminReload rebuilds the model from Options.Reload and swaps
// it in without interrupting traffic. Gated by X-Admin-Token when
// Options.AdminToken is set; mounted only when a reload source exists.
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	if s.opts.AdminToken != "" && r.Header.Get("X-Admin-Token") != s.opts.AdminToken {
		http.Error(w, "missing or wrong X-Admin-Token", http.StatusForbidden)
		return
	}
	gen, err := s.Reload(r.Context())
	if err != nil {
		s.logf("serve: /admin/reload: %v", err)
		http.Error(w, "reload failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, "/admin/reload", map[string]int64{"generation": gen})
}

// unavailable answers 503 with the same Retry-After advice the shed
// path derives from the gate — one helper so every not-ready and
// cache-layer 503 carries the header, set exactly once, instead of
// three hardcoded copies drifting apart.
func (s *Server) unavailable(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", strconv.Itoa(int(s.gate.RetryAfter().Seconds())))
	http.Error(w, reason, http.StatusServiceUnavailable)
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		s.unavailable(w, "model not ready")
		return
	}
	ctx := r.Context()

	if s.cache == nil {
		var rec recipe.Recipe
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			writeRecipeDecodeError(w, err)
			return
		}
		card, err := s.annotateOnce(ctx, &rec)
		if err != nil {
			s.writeAnnotateError(w, r, err)
			return
		}
		s.mServed.Inc()
		s.writeJSON(w, "/annotate", card)
		return
	}

	// Cache path: buffer the body once. A byte-identical repeat — the
	// hot-key shape — answers straight from the raw index without even
	// a JSON decode; everything else decodes and lands on the
	// canonical key.
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyBufPool.Put(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.opts.MaxBody)); err != nil {
		writeRecipeDecodeError(w, err)
		return
	}
	gen := s.generation.Load()
	rk := cacheKey{gen: gen, hash: sha256.Sum256(buf.Bytes())}
	if body, ok := s.cache.rawLookup(rk); ok {
		s.mServed.Inc()
		s.writeBody(w, "hit", body)
		return
	}

	var rec recipe.Recipe
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		writeRecipeDecodeError(w, err)
		return
	}
	// Canonicalize before hashing: Resolve applies the same
	// normalization the fold-in consumes (amount strings → grams), so
	// textual variants of one recipe share a key. Resolve failures are
	// the recipe's fault — same 422 the fold-in path would produce.
	if err := rec.Resolve(); err != nil {
		s.writeAnnotateError(w, r, fmt.Errorf("annotate: %w: %w", annotate.ErrRecipe, err))
		return
	}
	key := cacheKey{gen: gen, hash: hashRecipe(&rec)}
	body, f, leader := s.cache.lookup(key)
	switch {
	case body != nil:
		// Hit: served straight from memory — no pool slot, no sweeps.
		s.cache.addRaw(key, rk)
		s.mServed.Inc()
		s.writeBody(w, "hit", body)
	case !leader:
		// An identical fold-in is already running; wait for its result
		// under this request's own deadline. An expired waiter answers
		// for itself and leaves the leader folding for everyone else.
		select {
		case <-f.done:
			if f.err != nil {
				s.writeWaiterError(w, r, f.err)
				return
			}
			s.cache.addRaw(key, rk)
			s.mServed.Inc()
			s.writeBody(w, "wait", f.body)
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				s.mTimeouts.Inc()
				http.Error(w, "timed out waiting for an identical in-flight annotation", http.StatusGatewayTimeout)
			}
		}
	default:
		// Leader: exactly one fold-in feeds the cache and every waiter.
		// A panic mid-fold-in must complete the flight before it
		// reaches the Recover middleware — a stranded flight would turn
		// every future identical request into a waiter that can only
		// time out.
		runLeader := func() (*annotate.WireCard, error) {
			defer func() {
				if v := recover(); v != nil {
					s.cache.finish(key, f, nil, fmt.Errorf("annotation panic: %v", v))
					panic(v)
				}
			}()
			return s.annotateOnce(ctx, &rec)
		}
		card, err := runLeader()
		cached, err := s.cache.finish(key, f, card, err)
		if err != nil {
			s.writeAnnotateError(w, r, err)
			return
		}
		s.cache.addRaw(key, rk)
		s.mServed.Inc()
		s.writeBody(w, "miss", cached)
	}
}

// writeRecipeDecodeError maps a body-read or JSON failure on
// /annotate: over the cap is 413, anything else malformed is 400.
func writeRecipeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("recipe JSON over %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, "bad recipe JSON: "+err.Error(), http.StatusBadRequest)
}

// errAdmitTimeout marks a deadline that expired while waiting for a
// pool slot, keeping its 504 message distinct from a mid-fold-in
// expiry.
var errAdmitTimeout = errors.New("timed out waiting for an annotator")

// annotateOnce is the fold-in path of one annotation: admission
// through the gate (bounded concurrency with a bounded queue-wait —
// past the wait budget the request is shed so an overloaded annotator
// answers "try later" fast instead of queueing into timeout), an
// annotator checkout, and the Gibbs chain. Failures come back as the
// typed errors writeAnnotateError maps to statuses.
func (s *Server) annotateOnce(ctx context.Context, rec *recipe.Recipe) (*annotate.WireCard, error) {
	if err := s.gate.Acquire(ctx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("%w: %w", errAdmitTimeout, err)
		}
		return nil, err
	}
	defer s.gate.Release()

	// The gate capacity equals the pool size, so a checkout never
	// blocks once admitted.
	s.mu.RLock()
	pool := s.pool
	s.mu.RUnlock()
	ann := <-pool
	defer func() { pool <- ann }()

	if err := resilience.Inject(ctx, s.opts.Injector, "annotate"); err != nil {
		return nil, err
	}
	card, err := ann.Annotate(ctx, rec)
	if err != nil {
		return nil, err
	}
	wire := card.Wire()
	return &wire, nil
}

// writeAnnotateError maps an annotation failure to its status: a
// saturated gate is 429 with retry advice, recipe faults are the
// client's (422), expired deadlines are 504, a vanished client gets
// nothing, and everything else is a 500 — logged, because a 5xx the
// operator cannot see is a 5xx that never gets fixed.
func (s *Server) writeAnnotateError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, resilience.ErrSaturated):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.gate.RetryAfter().Seconds())))
		http.Error(w, "annotator pool saturated; retry shortly", http.StatusTooManyRequests)
	case errors.Is(err, errAdmitTimeout):
		s.mTimeouts.Inc()
		http.Error(w, errAdmitTimeout.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, annotate.ErrRecipe):
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	case errors.Is(err, context.DeadlineExceeded):
		s.mTimeouts.Inc()
		http.Error(w, "annotation timed out", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled), errors.Is(err, core.ErrCanceled):
		s.logf("serve: %s %s: abandoned: %v", r.Method, r.URL.Path, err)
	default:
		s.logf("serve: %s %s: internal: %v", r.Method, r.URL.Path, err)
		http.Error(w, "internal annotation failure", http.StatusInternalServerError)
	}
}

// writeWaiterError maps the leader's failure for a single-flight
// waiter. One difference from the leader's own mapping: a canceled
// leader (its client vanished mid-fold-in) is not this waiter's
// fault and not a timeout — the waiter is told to retry with the
// cache layer's 503.
func (s *Server) writeWaiterError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, core.ErrCanceled) {
		s.unavailable(w, "in-flight annotation canceled; retry")
		return
	}
	s.writeAnnotateError(w, r, err)
}

// writeBody writes a cached (or just-cached) annotation response. The
// X-Annotation-Cache header says how this request was served: "hit"
// from the cache, "wait" from an in-flight fold-in, "miss" by leading
// one.
func (s *Server) writeBody(w http.ResponseWriter, state string, body []byte) {
	w.Header().Set("X-Annotation-Cache", state)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		s.logf("serve: /annotate: response write: %v", err)
	}
}

// TopicInfo is the wire form of one fitted topic on GET /topics,
// shared with the client SDK.
type TopicInfo struct {
	Topic   int                 `json:"topic"`
	Recipes int                 `json:"recipes"`
	Gels    map[string]float64  `json:"gels"`
	Terms   []annotate.WireTerm `json:"terms"`
}

func (s *Server) handleTopics(w http.ResponseWriter, r *http.Request) {
	// Same readiness check as the annotate routes: a draining server
	// must stop accepting new /topics work too, not just fold-ins.
	if !s.Ready() {
		s.unavailable(w, "model not ready")
		return
	}
	s.mu.RLock()
	out := s.out
	s.mu.RUnlock()
	counts := out.Model.DocsPerTopic()
	topics := make([]TopicInfo, 0, out.Model.K)
	for k := 0; k < out.Model.K; k++ {
		info := TopicInfo{Topic: k, Recipes: counts[k], Gels: map[string]float64{}}
		for axis, conc := range linkage.TopicMeanConcentrations(out.Model, k, 0.0005) {
			info.Gels[recipe.Gel(axis).String()] = conc
		}
		for _, tp := range out.Model.TopTerms(k, 5) {
			if tp.Prob < 0.01 {
				break
			}
			term := out.Dict.Term(tp.ID)
			info.Terms = append(info.Terms, annotate.WireTerm{
				Romaji: term.Romaji, Kana: term.Kana, Gloss: term.Gloss, Prob: tp.Prob,
			})
		}
		topics = append(topics, info)
	}
	s.writeJSON(w, "/topics", topics)
}

func (s *Server) writeJSON(w http.ResponseWriter, route string, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// Headers are already out; all that is left is making the
		// truncated response diagnosable.
		s.logf("serve: %s: response encode: %v", route, err)
	}
}
