// Package serve exposes the texture annotator over HTTP — the shape a
// recipe-sharing site would deploy: POST a recipe, get its texture
// card; browse the fitted topics.
//
// Each model generation is served from one immutable state: the
// pipeline output, one annotator whose every fold-in chain starts
// from Options.Seed, and the generation id. A request loads that state
// once and uses it for everything it does, so a texture card is a
// function of (generation, recipe) alone.
//
// The serving runtime is built for degradation, not just the happy
// path: an admission gate bounds concurrent fold-ins and sheds
// overload with 429 + Retry-After instead of queueing it, every
// request carries a deadline that propagates down into the Gibbs
// sweeps, panics become 500s without killing the process, and
// liveness (/healthz) is split from readiness (/readyz) so a load
// balancer can route around a server that is still fitting its model
// or draining for shutdown.
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
	// Pool is the admission gate's capacity — the hard bound on
	// concurrent fold-ins, and the most workers one batch takes.
	Pool int
	// AdmitWait is how long an /annotate request may wait for a gate
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
	// content hash) and repeats are served without a gate slot or a
	// Gibbs sweep, with concurrent identical misses collapsed onto one
	// fold-in. Off by default so a server stays a pure fold-in engine
	// unless asked; cmd/textureserver turns it on.
	Cache bool
	// CacheSize caps the cached responses (with Cache);
	// DefaultCacheSize when zero or negative.
	CacheSize int
	// Seed drives every fold-in chain, whichever gate slot runs it, so
	// a card depends only on the model generation and the recipe.
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

// state is one model generation's serving state. It is immutable once
// published: a swap publishes a new one, and a request that loaded the
// old one finishes on it.
type state struct {
	out *pipeline.Output
	ann *annotate.Annotator
	gen int64 // 1 for the first install, bumped by every swap
}

// Server handles texture annotation requests on a fitted model.
type Server struct {
	opts Options
	logf func(format string, args ...any)
	gate *resilience.Gate

	// installMu serializes writers: SetOutput, SwapOutput and Reload.
	// Readers never take it; they load cur.
	installMu sync.Mutex
	cur       atomic.Pointer[state] // nil until the first install

	// cache is the request-level annotation cache; nil when
	// Options.Cache is off.
	cache *annotCache

	draining atomic.Bool

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
		func() float64 { return float64(s.generation()) })
	reg.CounterFunc("serve_shed_total", "Requests shed by the admission gate.", nil, s.gate.Shed)
	reg.GaugeFunc("serve_in_flight", "Fold-ins currently holding an admission gate slot.", nil,
		func() float64 { return float64(s.gate.InUse()) })
	reg.GaugeFunc("serve_pool_size", "Admission gate capacity (-pool): the bound on concurrent fold-ins.", nil,
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

// install builds out's serving state and publishes it as the next
// generation. The caller holds installMu. The fold-in kernel is built
// (and the model's shape checked) first, so a degenerate model fails
// the install rather than the first request, and no request pays the
// per-model precomputation. The generation's annotator reports its
// fold-ins to this server's metrics, which are atomic; install sets
// nothing on out, so any number of servers may serve one Output. An
// unfitted output has no model; annotate.New rejects it.
func (s *Server) install(out *pipeline.Output) error {
	if out.Model != nil {
		if _, err := out.Model.BuildKernel(); err != nil {
			return fmt.Errorf("serve: fold-in kernel: %w", err)
		}
	}
	ann, err := annotate.New(out)
	if err != nil {
		return err
	}
	ann.OnFoldIn = s.observeFoldIn
	ann.Seed = s.opts.Seed
	if s.opts.FoldInIters > 0 {
		ann.FoldInIters = s.opts.FoldInIters
	}
	gen := s.generation() + 1
	s.cur.Store(&state{out: out, ann: ann, gen: gen})
	s.mSwaps.Inc()
	s.mSwapTime.Set(float64(time.Now().UnixNano()) / 1e9)
	if gen > 1 {
		s.logf("serve: model swapped in, generation %d (K=%d, %d docs)", gen, out.Model.K, out.Recipes())
	}
	return nil
}

// observeFoldIn records one fold-in chain into the server's metrics.
func (s *Server) observeFoldIn(st annotate.FoldInStats) {
	s.mFoldinSeconds.Observe(st.Total.Seconds())
	s.mFoldinSweeps.Add(int64(st.Sweeps))
	if st.Canceled {
		s.mFoldinCanceled.Inc()
	}
}

// generation is the generation serving now; 0 before the first
// install.
func (s *Server) generation() int64 {
	if st := s.cur.Load(); st != nil {
		return st.gen
	}
	return 0
}

// serving is the state a new request runs on: nil while no model is
// installed or the server drains.
func (s *Server) serving() *state {
	if s.draining.Load() {
		return nil
	}
	return s.cur.Load()
}

// SetOutput installs the fitted model and flips the server ready. It
// may be called once; use SwapOutput to replace a model that is
// already serving.
func (s *Server) SetOutput(out *pipeline.Output) error {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	if s.cur.Load() != nil {
		return fmt.Errorf("serve: model already installed")
	}
	return s.install(out)
}

// SwapOutput atomically replaces the serving model under live traffic.
// The new generation's state is built in full before one pointer
// store publishes it: requests that load the state after the store
// fold in on the new model, while in-flight requests finish on the
// state they loaded. No request is dropped or errored by a swap.
func (s *Server) SwapOutput(out *pipeline.Output) error {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	return s.install(out)
}

// Reload runs Options.Reload and swaps the result in, serializing
// concurrent calls (SIGHUP and /admin/reload can race; only one
// rebuild runs at a time). Returns the generation now serving.
func (s *Server) Reload(ctx context.Context) (int64, error) {
	if s.opts.Reload == nil {
		return 0, fmt.Errorf("serve: no reload source configured")
	}
	s.installMu.Lock()
	defer s.installMu.Unlock()
	out, err := s.opts.Reload(ctx)
	if err != nil {
		return 0, fmt.Errorf("serve: reload source: %w", err)
	}
	if err := s.install(out); err != nil {
		return 0, err
	}
	return s.generation(), nil
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
func (s *Server) Ready() bool { return s.serving() != nil }

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
		Draining: s.draining.Load(),
		Pool:     s.opts.Pool,
		InFlight: s.gate.InUse(),
		Served:   s.mServed.Value(),
		Shed:     s.gate.Shed(),
		Panics:   s.mPanics.Value(),
		Timeouts: s.mTimeouts.Value(),
	}
	if cur := s.cur.Load(); cur != nil {
		st.Ready = true
		st.Generation = cur.gen
		st.LastFitIncidents = cur.out.FitIncidents
	}
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
//	GET  /statusz    runtime counters (gate, shed, panics, …)
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
	case s.cur.Load() == nil:
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

// decodeRecipe reads one recipe body under MaxBody for /annotate and
// /ingest. On failure it has answered (413 over the cap, 400 for
// anything else malformed) and returns false.
func (s *Server) decodeRecipe(w http.ResponseWriter, r *http.Request, rec *recipe.Recipe) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(rec); err != nil {
		writeRecipeDecodeError(w, err)
		return false
	}
	return true
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	st := s.serving()
	if st == nil {
		s.unavailable(w, "model not ready")
		return
	}
	ctx := r.Context()

	if s.cache == nil {
		var rec recipe.Recipe
		if !s.decodeRecipe(w, r, &rec) {
			return
		}
		card, err := s.annotateOnce(ctx, st, &rec)
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
	rk := cacheKey{gen: st.gen, hash: sha256.Sum256(buf.Bytes())}
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
	key := cacheKey{gen: st.gen, hash: hashRecipe(&rec)}
	body, f, leader := s.cache.lookup(key)
	switch {
	case body != nil:
		// Hit: served straight from memory — no gate slot, no sweeps.
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
			return s.annotateOnce(ctx, st, &rec)
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
// gate slot, keeping its 504 message distinct from a mid-fold-in
// expiry.
var errAdmitTimeout = errors.New("timed out waiting for an annotator")

// admit is the one admission step: a gate slot under the shed policy
// (bounded concurrency with a bounded queue wait — past the wait
// budget the request is shed, so an overloaded server answers "try
// later" fast instead of queueing into timeout). A deadline that ends
// in the queue comes back as errAdmitTimeout. On success the caller
// owes one gate.Release.
func (s *Server) admit(ctx context.Context) error {
	err := s.gate.Acquire(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", errAdmitTimeout, err)
	}
	return err
}

// foldIn is the one fold-in step of every annotation — /annotate,
// each /annotate/batch item, and the ingest warm fold-in: fault
// injection (op "annotate"), the Gibbs chain on st's annotator, and
// the wire card. The caller holds a gate slot.
func (s *Server) foldIn(ctx context.Context, st *state, rec *recipe.Recipe) (*annotate.WireCard, error) {
	if err := resilience.Inject(ctx, s.opts.Injector, "annotate"); err != nil {
		return nil, err
	}
	card, err := st.ann.Annotate(ctx, rec)
	if err != nil {
		return nil, err
	}
	wire := card.Wire()
	return &wire, nil
}

// annotateOnce is one admitted fold-in. Failures come back as the
// typed errors annotateStatus maps to statuses.
func (s *Server) annotateOnce(ctx context.Context, st *state, rec *recipe.Recipe) (*annotate.WireCard, error) {
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	defer s.gate.Release()
	return s.foldIn(ctx, st, rec)
}

// statusClientClosed is nginx's 499 "client closed request": there is
// no one left to read the card.
const statusClientClosed = 499

// annotateStatus is the one status mapping of /annotate and each
// /annotate/batch item: a saturated gate is 429, a deadline in the
// gate queue or in the fold-in is 504 (and counts as a timeout),
// recipe faults are the client's (422), a vanished client is 499, and
// everything else is a 500, which the caller logs — a 5xx the
// operator cannot see is a 5xx that never gets fixed.
func (s *Server) annotateStatus(err error) (int, string) {
	switch {
	case errors.Is(err, resilience.ErrSaturated):
		return http.StatusTooManyRequests, "annotator pool saturated; retry shortly"
	case errors.Is(err, errAdmitTimeout):
		s.mTimeouts.Inc()
		return http.StatusGatewayTimeout, errAdmitTimeout.Error()
	case errors.Is(err, annotate.ErrRecipe):
		return http.StatusUnprocessableEntity, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		s.mTimeouts.Inc()
		return http.StatusGatewayTimeout, "annotation timed out"
	case errors.Is(err, context.Canceled), errors.Is(err, core.ErrCanceled):
		return statusClientClosed, "annotation canceled"
	default:
		return http.StatusInternalServerError, "internal annotation failure"
	}
}

// writeAnnotateError answers a request with annotateStatus: a 429
// carries retry advice, and a vanished client gets nothing.
func (s *Server) writeAnnotateError(w http.ResponseWriter, r *http.Request, err error) {
	code, msg := s.annotateStatus(err)
	switch code {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", strconv.Itoa(int(s.gate.RetryAfter().Seconds())))
	case statusClientClosed:
		s.logf("serve: %s %s: abandoned: %v", r.Method, r.URL.Path, err)
		return
	case http.StatusInternalServerError:
		s.logf("serve: %s %s: internal: %v", r.Method, r.URL.Path, err)
	}
	http.Error(w, msg, code)
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
	st := s.serving()
	if st == nil {
		s.unavailable(w, "model not ready")
		return
	}
	out := st.out
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
