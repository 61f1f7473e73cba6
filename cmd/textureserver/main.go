// Command textureserver serves texture cards over HTTP. It binds its
// port immediately, acquires its model in the background (answering
// 503 on model-backed routes until ready), and drains gracefully on
// SIGINT/SIGTERM:
//
//	POST /annotate      {recipe JSON}  → texture card
//	POST /ingest        {recipe JSON}  → durable WAL append (with -ingest-dir)
//	POST /ingest/batch  {recipes}      → batched durable appends
//	GET  /topics                       → the fitted topics
//	GET  /healthz                      → liveness (process is up)
//	GET  /readyz                       → readiness (model fitted, not draining)
//	GET  /statusz                      → runtime counters
//	GET  /metrics                      → Prometheus text exposition
//	POST /admin/reload                 → swap in the bundle file again (with -bundle)
//
// The model comes from one of three places: a -bundle file saved by
// texturetopics (instant startup, reloadable at runtime via SIGHUP or
// POST /admin/reload), a model -store published to by texturetopics
// (the replica follows the registry's promoted generation, hot-swapping
// new rollouts and degrading gracefully when the store is unreachable),
// or a startup fit (-scale/-iters). A bundle, from a file or the
// registry, is loaded with pipeline.LoadModel: only the model part a
// server reads is inflated, never the fit record behind it. A startup
// fit with -checkpoint-dir writes crash-safe checkpoints; with -resume
// it continues a half-finished fit instead of starting over. The fit
// flags (-scale through -log-every) are pipeline.FitFlags, shared with
// texturetopics; -supervise gives each chain a restart budget and
// health thresholds.
//
// With -ingest-dir the server accepts online corpus growth: POST
// /ingest fsyncs each recipe into a durable WAL before acking, folds it
// into the live model opportunistically, and — when a -store registry
// is also configured — a background re-fit controller streams the base
// corpus plus the WAL through the pipeline once -refit-records (or
// -refit-age) accumulate past the watermark, publishes and promotes the
// merged bundle so every follower rolls forward.
//
// Usage:
//
//	textureserver [-addr :8080] [-bundle model.bundle]
//	              [-store fs:DIR|mem:] [-registry-poll 5s] [-generation-pin N]
//	              [-scale 1.0] [-iters 300]
//	              [-ingest-dir dir] [-refit-records 1000] [-refit-age 0]
//	              [-refit-interval 15s] [-refit-base corpus.jsonl]
//	              [-checkpoint-dir dir] [-checkpoint-every 25] [-resume]
//	              [-supervise] [-max-restarts 3] [-sweep-timeout 0] [-max-ll-drop 0]
//	              [-shards 1] [-log-every 50]
//	              [-admin-token secret]
//	              [-pool N] [-max-batch 64] [-cache] [-cache-size 4096]
//	              [-request-timeout 5s] [-drain-timeout 10s]
//	              [-admit-wait 250ms] [-log-format text|json] [-pprof]
//
// Example:
//
//	curl -s localhost:8080/annotate -d '{
//	  "id":"my-jelly","title":"ゼリー",
//	  "ingredients":[{"name":"ゼラチン","amount":"5g"},
//	                 {"name":"水","amount":"400ml"}]}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/storage"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		bundlePath   = flag.String("bundle", "", "serve this bundle file instead of fitting at startup")
		storeSpec    = flag.String("store", "", "follow the model registry in this store (fs:DIR, mem:, or a bare directory)")
		registryPoll = flag.Duration("registry-poll", 5*time.Second, "registry poll interval (with -store)")
		genPin       = flag.Int64("generation-pin", 0, "pin this replica to a registry generation ID instead of following promotions (with -store)")
		ingestDir    = flag.String("ingest-dir", "", "durable ingest WAL directory; mounts POST /ingest and /ingest/batch")
		refitRecords = flag.Uint64("refit-records", 1000, "trigger a background re-fit after this many accepted records past the watermark (with -ingest-dir and -store)")
		refitAge     = flag.Duration("refit-age", 0, "trigger a re-fit once the oldest unfitted record is this old, regardless of count (0 disables)")
		refitPoll    = flag.Duration("refit-interval", 15*time.Second, "re-fit trigger poll cadence")
		refitBase    = flag.String("refit-base", "", "frozen JSONL base corpus re-fits grow the WAL on top of (empty: WAL records alone)")
		adminToken   = flag.String("admin-token", "", "X-Admin-Token required by POST /admin/reload (empty: no token check)")
		pool         = flag.Int("pool", runtime.GOMAXPROCS(0), "admission gate capacity: the bound on concurrent fold-ins (every fold-in uses the same seed, so a card depends only on the model and the recipe)")
		maxBatch     = flag.Int("max-batch", 64, "max recipes per POST /annotate/batch (413 over)")
		cacheOn      = flag.Bool("cache", true, "serve repeated annotation requests from the response cache (single-flight deduped)")
		cacheSize    = flag.Int("cache-size", serve.DefaultCacheSize, "max cached annotation responses (with -cache)")
		reqTimeout   = flag.Duration("request-timeout", 5*time.Second, "per-request deadline (504 past it; 0 disables)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "shutdown budget for in-flight requests")
		admitWait    = flag.Duration("admit-wait", 250*time.Millisecond, "max wait for an admission gate slot before shedding with 429")
		logFormat    = flag.String("log-format", "text", "access/progress log format: text or json")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	fit := pipeline.RegisterFitFlags(flag.CommandLine)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logFormat)

	if *storeSpec != "" && *bundlePath != "" {
		log.Fatal("textureserver: -store and -bundle are mutually exclusive; a replica follows the registry or a file, not both")
	}
	if *genPin != 0 && *storeSpec == "" {
		log.Fatal("textureserver: -generation-pin requires -store")
	}
	if *refitBase != "" && *ingestDir == "" {
		log.Fatal("textureserver: -refit-base requires -ingest-dir")
	}
	if *refitRecords == 0 {
		// NewRefitter treats 0 as "use the default"; an operator typing 0
		// almost certainly wanted per-record refits and must hear that
		// they cannot have them, not silently get 1000.
		log.Fatal("textureserver: -refit-records must be at least 1 (use -refit-age to trigger by age instead)")
	}

	// One registry shared by the server, the fitting pipeline, and the
	// ingest manager, so /metrics is a single page.
	metrics := obs.NewRegistry()

	opts := serve.DefaultOptions()
	opts.Metrics = metrics
	opts.Pool = *pool
	opts.MaxBatch = *maxBatch
	opts.Cache = *cacheOn
	opts.CacheSize = *cacheSize
	opts.RequestTimeout = *reqTimeout
	opts.AdmitWait = *admitWait
	opts.AccessLog = logger
	opts.Pprof = *pprofOn
	opts.AdminToken = *adminToken
	if *bundlePath != "" {
		// A file-backed model can be replaced at runtime: SIGHUP and
		// POST /admin/reload both re-read the bundle and swap it in
		// without dropping traffic.
		opts.Reload = func(context.Context) (*pipeline.Output, error) {
			return pipeline.LoadModelFile(*bundlePath)
		}
	}

	// The ingest manager recovers the WAL (truncating any torn tail)
	// before the server mounts its routes, so the first /ingest already
	// sees the recovered sequence space.
	var mgr *ingest.Manager
	if *ingestDir != "" {
		var err error
		mgr, err = ingest.OpenManager(ingest.ManagerOptions{
			Dir:     *ingestDir,
			Metrics: metrics,
		})
		if err != nil {
			log.Fatalf("textureserver: ingest: %v", err)
		}
		defer mgr.Close()
		opts.Ingest = mgr
		st := mgr.WAL().Stats()
		logger.Info("ingest WAL recovered", "dir", *ingestDir,
			"records", st.Records, "segments", st.Segments,
			"last_seq", st.LastSeq, "watermark", mgr.Watermark())
	}

	srv := serve.NewPending(opts)

	// The fit options, built once for the startup fit and the re-fit
	// controller. The fit records into the server's registry, so the
	// sweep and stage series show up on the same /metrics page as the
	// serving counters.
	popts := fit.Options(logger)
	popts.Metrics = metrics

	// Registry follower mode: the model comes from the store's promoted
	// generation, so the startup fit/load goroutine below is skipped and
	// the follower loop (started once the signal context exists) owns
	// the model lifecycle end to end.
	var follower *serve.Follower
	var registry *storage.Registry
	if *storeSpec != "" {
		// A breaker cooldown of half the poll interval guarantees a
		// recovered backend gets its half-open probe by the next poll, so
		// replicas converge within one interval of recovery. The store's
		// per-operation series go to the shared /metrics registry.
		st, err := storage.Open(*storeSpec, storage.RobustOptions{
			BreakerCooldown: *registryPoll / 2,
			Metrics:         metrics,
		})
		if err != nil {
			log.Fatalf("textureserver: %v", err)
		}
		registry = storage.NewRegistry(st)
		follower, err = srv.NewFollower(serve.FollowOptions{
			Registry: registry,
			Interval: *registryPoll,
			Pin:      *genPin,
		})
		if err != nil {
			log.Fatalf("textureserver: %v", err)
		}
		logger.Info("following model registry", "store", *storeSpec,
			"poll", registryPoll.String(), "pin", *genPin)
	}

	// Bind first, load or fit later: /healthz and /readyz answer while
	// the model is acquired, so orchestrators see a live-but-not-ready
	// pod instead of a connection refused.
	if follower == nil {
		go func() {
			start := time.Now()
			var out *pipeline.Output
			var err error
			if *bundlePath != "" {
				logger.Info("loading bundle", "path", *bundlePath)
				out, err = pipeline.LoadModelFile(*bundlePath)
			} else {
				logger.Info("fitting topic model", "scale", popts.Corpus.Scale, "sweeps", popts.Model.Iterations,
					"checkpoint_dir", popts.Checkpoint.Dir, "resume", popts.Checkpoint.Resume)
				out, err = pipeline.Run(popts)
			}
			if err != nil {
				log.Fatalf("model acquisition failed; the server can never become ready: %v", err)
			}
			if err := srv.SetOutput(out); err != nil {
				log.Fatal(err)
			}
			logger.Info("model ready",
				"elapsed", time.Since(start).Round(time.Millisecond).String(),
				"recipes", out.Recipes(), "topics", out.Model.K)
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if follower != nil {
		go follower.Run(ctx)
	}

	// Watermark-triggered background re-fit: needs both a WAL to replay
	// and a registry to publish into. Without -store the WAL still
	// accrues durably and an offline `texturetopics -ingest-dir` run
	// folds it in later.
	switch {
	case mgr != nil && registry != nil:
		var base pipeline.StreamSource
		if *refitBase != "" {
			base = pipeline.FileSource(*refitBase)
		}
		// The re-fit reuses the fit options minus the checkpoint, which
		// belongs to the startup corpus, not the grown one.
		ropts := popts
		ropts.Checkpoint = pipeline.CheckpointOptions{}
		refitter, err := ingest.NewRefitter(ingest.RefitOptions{
			Manager:    mgr,
			Base:       base,
			Pipeline:   ropts,
			Registry:   registry,
			MinRecords: *refitRecords,
			MaxAge:     *refitAge,
			Interval:   *refitPoll,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			log.Fatalf("textureserver: %v", err)
		}
		go refitter.Run(ctx)
		logger.Info("re-fit controller running",
			"min_records", *refitRecords, "max_age", refitAge.String(),
			"interval", refitPoll.String(), "base", *refitBase)
	case mgr != nil:
		logger.Info("ingest WAL active without -store; records accrue for an offline re-fit (texturetopics -ingest-dir)")
	}

	// SIGHUP = operator asking for a zero-downtime model reload.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if *bundlePath == "" {
				logger.Warn("SIGHUP ignored: no -bundle to reload from")
				continue
			}
			gen, err := srv.Reload(ctx)
			if err != nil {
				logger.Error("SIGHUP reload failed; still serving the previous model", "err", err.Error())
				continue
			}
			logger.Info("SIGHUP reload complete", "generation", gen, "path", *bundlePath)
		}
	}()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	logger.Info("listening", "addr", *addr, "pool", *pool,
		"request_timeout", reqTimeout.String(), "admit_wait", admitWait.String(),
		"pprof", *pprofOn)
	if err := serve.ListenAndServe(ctx, hs, srv, *drainTimeout); err != nil {
		log.Fatal(err)
	}
	logger.Info("drained cleanly")
}
