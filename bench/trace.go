package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/annotate"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/lexicon"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/recipe"
	"repro/internal/serve"
	_ "repro/internal/shardfit" // registers the sharded fitter with the pipeline
	"repro/internal/storage"
)

// span is one timed call. Spans of one request share Req; Parent is
// the index of the span that caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run
// ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string, req int64, parent int) int {
	tr.spans = append(tr.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(tr.t0))})
	return len(tr.spans) - 1
}

func (tr *tracer) end(i int) { tr.spans[i].End = int64(time.Since(tr.t0)) }

// selfTimes returns each span's duration minus the durations of its
// direct children. Children here are replays of the calls a span made,
// timed one after another, so their durations add.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// usByName is the median duration in µs of the spans named name.
func usByName(spans []span, self []time.Duration, name string, useSelf bool) float64 {
	var xs []float64
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if useSelf {
			d = self[i]
		}
		xs = append(xs, float64(d)/float64(time.Microsecond))
	}
	return median(xs)
}

const (
	// tracedRequests is how many of the workload's operations the
	// traced run replays; annotate-batch replays tracedBatches, each
	// carrying batchSize recipes.
	tracedRequests = 2000
	tracedBatches  = 200
	// layerReps repeats each whole-artifact layer call (bundle load and
	// encode, registry operations) for a median.
	layerReps = 5
)

// tracedRun holds the replay state of one traced run.
type tracedRun struct {
	tr    *tracer
	ann   *annotate.Annotator
	model *core.Result
	dict  *lexicon.Dictionary
	excl  map[string][]string
	wal   *ingest.Manager // replay target for ingest.append spans
}

// runTraced is the in-process traced run. The workload's first
// operations go through Server.Handler().ServeHTTP, configured as
// textureserver configures it but with a pool of one so the single
// replay goroutine accounts for all the work; after each handler call
// the layer calls the handler made, as its X-Annotation-Cache header
// shows, are replayed on the same input as child spans. The pipeline,
// storage and ingest layers are timed on the run's inputs too.
func runTraced(e *env, name string, t *traffic, bundlePath string, res *outcome) error {
	bundle, err := os.ReadFile(bundlePath)
	if err != nil {
		return err
	}
	// Every server and the replay annotator get their own Output:
	// installing a model into a server sets a telemetry hook on it.
	var outs []*pipeline.Output
	var loadMS, loadAllocs []float64
	for i := 0; i < layerReps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		out, err := pipeline.LoadBundle(bytes.NewReader(bundle))
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		loadMS = append(loadMS, float64(d)/float64(time.Millisecond))
		loadAllocs = append(loadAllocs, float64(m1.Mallocs-m0.Mallocs))
		outs = append(outs, out)
	}
	res.PerLayer.set("pipeline.load_bundle_ms", median(loadMS), "ms")
	res.PerLayer.set("pipeline.load_bundle_allocs", median(loadAllocs), "count")

	n := tracedRequests
	if t.workload == "annotate-batch" {
		n = tracedBatches
	}
	ops := make([]op, n)
	bodies := make([][]byte, n)
	for i := range ops {
		ops[i] = t.op(int64(i))
		var b bytes.Buffer
		t.body(ops[i], &b)
		bodies[i] = b.Bytes()
	}

	logFile, err := os.Create(filepath.Join(e.work, "traced-access.log"))
	if err != nil {
		return err
	}
	defer logFile.Close()
	accessLog := obs.NewLogger(logFile, "text")

	// Pass A: the handler loop without spans, for the tracing overhead.
	hA, closeA, err := tracedHandler(outs[0], accessLog, filepath.Join(e.work, "traced-wal-a"), name)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := range ops {
		serveOne(hA, ops[i], bodies[i])
	}
	loopA := time.Since(start)
	closeA()

	// Pass B: the same loop with spans, then the child replays.
	hB, closeB, err := tracedHandler(outs[1], accessLog, filepath.Join(e.work, "traced-wal-b"), name)
	if err != nil {
		return err
	}
	defer closeB()
	ann, err := annotate.New(outs[2])
	if err != nil {
		return err
	}
	wal, err := ingest.OpenManager(ingest.ManagerOptions{Dir: filepath.Join(e.work, "traced-wal-replay")})
	if err != nil {
		return err
	}
	defer wal.Close()
	r := &tracedRun{tr: newTracer(), ann: ann, model: outs[2].Model, dict: outs[2].Dict,
		excl: outs[2].ExcludedTerms, wal: wal}
	seenBody := map[[sha256.Size]byte]bool{}
	seenKey := map[int64]bool{}
	var loopB time.Duration
	for i := range ops {
		t0 := time.Now()
		h := r.tr.begin("serve.handler", int64(i), -1)
		rec := serveOne(hB, ops[i], bodies[i])
		r.tr.end(h)
		loopB += time.Since(t0)
		want := http.StatusOK
		if ops[i].kind == kindIngest {
			want = http.StatusAccepted
		}
		if rec.Code != want {
			res.Problems = append(res.Problems, fmt.Sprintf("traced op %d: status %d: %.200s", i, rec.Code, rec.Body.String()))
			continue
		}
		if err := r.replay(int64(i), h, ops[i], bodies[i], rec.Header().Get("X-Annotation-Cache"), seenBody, seenKey); err != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("traced op %d replay: %v", i, err))
		}
	}
	if err := r.layers(e, name, t, res); err != nil {
		return err
	}

	spans := r.tr.spans
	self := selfTimes(spans)
	var handlerSum, childSum time.Duration
	var perRecipe []float64
	for _, s := range spans {
		switch {
		case s.Name == "serve.handler":
			handlerSum += s.dur()
			perRecipe = append(perRecipe, float64(s.dur())/float64(time.Microsecond)/float64(len(ops[s.Req].keys)))
		case s.Parent >= 0 && spans[s.Parent].Name == "serve.handler":
			childSum += s.dur()
		}
	}
	m := res.PerLayer
	m.set("serve.handler_us", usByName(spans, self, "serve.handler", false), "us")
	m.set("serve.per_recipe_us", median(perRecipe), "us")
	m.set("serve.self_us", usByName(spans, self, "serve.handler", true), "us")
	m.set("http.overhead_us", m["http.unloaded_p50_us"].Value-m["serve.handler_us"].Value, "us")
	for _, name := range []string{"recipe.decode", "recipe.resolve", "recipe.hash", "lexicon.extract",
		"core.foldin", "annotate.annotate", "annotate.encode", "ingest.append"} {
		m.set(name+"_us", usByName(spans, self, name, false), "us")
	}
	m.set("annotate.self_us", usByName(spans, self, "annotate.annotate", true), "us")
	m.set("trace.overhead_pct", 100*(loopB.Seconds()-loopA.Seconds())/loopA.Seconds(), "%")
	m.set("trace.cover_pct", 100*childSum.Seconds()/handlerSum.Seconds(), "%")
	return writeTrace(e, name, spans)
}

// tracedHandler builds an in-process server the way textureserver
// does — cache on, access log to a file, shared metrics registry, and
// for ingest-mixed an ingest WAL — with a pool of one.
func tracedHandler(out *pipeline.Output, accessLog *slog.Logger, walDir, name string) (http.Handler, func(), error) {
	opts := serve.DefaultOptions()
	opts.Pool = 1
	opts.Cache = true
	opts.CacheSize = serve.DefaultCacheSize
	opts.Metrics = obs.NewRegistry()
	opts.AccessLog = accessLog
	opts.Logf = func(string, ...any) {}
	closeFn := func() {}
	if name == "ingest-mixed" {
		mgr, err := ingest.OpenManager(ingest.ManagerOptions{Dir: walDir, Metrics: opts.Metrics})
		if err != nil {
			return nil, nil, err
		}
		opts.Ingest = mgr
		closeFn = func() { mgr.Close() }
	}
	srv, err := serve.NewWithOptions(out, opts)
	if err != nil {
		closeFn()
		return nil, nil, err
	}
	return srv.Handler(), closeFn, nil
}

func serveOne(h http.Handler, o op, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, kindPath[o.kind], bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

// replay re-runs, as children of handler span h, the layer calls the
// handler made for operation i. A single /annotate miss decodes,
// resolves, hashes, annotates and encodes; a hit on a body seen before
// came from the raw-body memo and made no layer call, while a hit on a
// new spelling decoded, resolved and hashed first.
func (r *tracedRun) replay(i int64, h int, o op, body []byte, cache string, seenBody map[[sha256.Size]byte]bool, seenKey map[int64]bool) error {
	switch o.kind {
	case kindAnnotate:
		sum := sha256.Sum256(body)
		defer func() { seenBody[sum] = true }()
		if cache == "hit" && seenBody[sum] {
			return nil
		}
		rec, err := r.decode(i, h, body)
		if err != nil {
			return err
		}
		if err := r.resolve(i, h, rec); err != nil {
			return err
		}
		r.hash(i, h, rec)
		if cache != "miss" {
			return nil
		}
		card, err := r.annotate(i, h, rec)
		if err != nil {
			return err
		}
		c := r.tr.begin("annotate.encode", i, h)
		err = encodeJSON(io.Discard, card)
		r.tr.end(c)
		return err
	case kindBatch:
		d := r.tr.begin("recipe.decode", i, h)
		var req struct {
			Recipes []*recipe.Recipe `json:"recipes"`
		}
		err := strictDecode(body, &req)
		r.tr.end(d)
		if err != nil {
			return err
		}
		resp := serve.BatchResponse{Results: make([]serve.BatchItem, len(req.Recipes))}
		for j, rec := range req.Recipes {
			if err := r.resolve(i, h, rec); err != nil {
				return err
			}
			r.hash(i, h, rec)
			if seenKey[o.keys[j]] {
				continue // answered from the cache
			}
			seenKey[o.keys[j]] = true
			card, err := r.annotate(i, h, rec)
			if err != nil {
				return err
			}
			resp.Results[j] = serve.BatchItem{Index: j, Card: card}
		}
		c := r.tr.begin("annotate.encode", i, h)
		err = encodeJSON(io.Discard, resp)
		r.tr.end(c)
		return err
	default:
		rec, err := r.decode(i, h, body)
		if err != nil {
			return err
		}
		if err := r.resolve(i, h, rec); err != nil {
			return err
		}
		return r.appendWAL(i, h, rec)
	}
}

func (r *tracedRun) decode(i int64, parent int, body []byte) (*recipe.Recipe, error) {
	s := r.tr.begin("recipe.decode", i, parent)
	rec, err := decodeRecipe(body)
	r.tr.end(s)
	return rec, err
}

func (r *tracedRun) resolve(i int64, parent int, rec *recipe.Recipe) error {
	s := r.tr.begin("recipe.resolve", i, parent)
	err := rec.Resolve()
	r.tr.end(s)
	return err
}

func (r *tracedRun) hash(i int64, parent int, rec *recipe.Recipe) {
	s := r.tr.begin("recipe.hash", i, parent)
	recipe.CanonicalHash(rec)
	r.tr.end(s)
}

func (r *tracedRun) appendWAL(i int64, parent int, rec *recipe.Recipe) error {
	s := r.tr.begin("ingest.append", i, parent)
	_, err := r.wal.Append(rec)
	r.tr.end(s)
	return err
}

// annotate times Annotator.Annotate, then replays its two layer calls
// — term extraction and the fold-in chain — as its children.
func (r *tracedRun) annotate(i int64, parent int, rec *recipe.Recipe) (*annotate.WireCard, error) {
	a := r.tr.begin("annotate.annotate", i, parent)
	card, err := r.ann.Annotate(context.Background(), rec)
	r.tr.end(a)
	if err != nil {
		return nil, err
	}
	x := r.tr.begin("lexicon.extract", i, a)
	ids := r.dict.ExtractTermIDs(rec.Description)
	r.tr.end(x)
	words := ids[:0:0]
	for _, id := range ids {
		if _, skip := r.excl[r.dict.Term(id).Kana]; !skip {
			words = append(words, id)
		}
	}
	f := r.tr.begin("core.foldin", i, a)
	_, err = r.model.FoldInOptsCtx(context.Background(), core.KernelOptions{}, words, rec.GelFeatures(), rec.EmulsionFeatures(), r.ann.FoldInIters, r.ann.Seed)
	r.tr.end(f)
	wire := card.Wire()
	return &wire, err
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

func writeTrace(e *env, name string, spans []span) error {
	dir := filepath.Join(e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers times the layers a request does not reach — ingest appends,
// the access-log middleware, the streaming fit and its stages, bundle
// encoding, the registry — on this run's inputs.
func (r *tracedRun) layers(e *env, name string, t *traffic, res *outcome) error {
	m := res.PerLayer

	// Ingest: fsync-acked appends of the workload's recipes.
	wal, err := ingest.OpenManager(ingest.ManagerOptions{Dir: filepath.Join(e.work, "traced-wal-appends")})
	if err != nil {
		return err
	}
	for j := 0; j < 200; j++ {
		var b bytes.Buffer
		t.writeRecipe(&b, 1_000_000_000+int64(j))
		rec, err := decodeRecipe(b.Bytes())
		if err == nil {
			err = rec.Resolve()
		}
		if err != nil {
			wal.Close()
			return err
		}
		s := r.tr.begin("ingest.append", -1, -1)
		_, err = wal.Append(rec)
		r.tr.end(s)
		if err != nil {
			wal.Close()
			return err
		}
	}
	st := wal.WAL().Stats()
	m.set("ingest.bytes_per_record", float64(st.Bytes)/float64(st.Records), "B")
	if err := wal.Close(); err != nil {
		return err
	}

	// Access log around a no-op handler, per call, in batches of 100.
	logFile, err := os.Create(filepath.Join(e.work, "traced-accesslog-only.log"))
	if err != nil {
		return err
	}
	defer logFile.Close()
	h := obs.AccessLog(obs.NewLogger(logFile, "text"), http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	req := httptest.NewRequest(http.MethodPost, "/annotate", nil)
	var w discardWriter
	var perCall []float64
	for b := 0; b < 50; b++ {
		start := time.Now()
		for j := 0; j < 100; j++ {
			h.ServeHTTP(&w, req)
		}
		perCall = append(perCall, float64(time.Since(start))/float64(time.Microsecond)/100)
	}
	m.set("obs.accesslog_us", median(perCall), "us")

	// Streaming corpus → model, as texturetopics -stream -shards 2 runs it.
	corpusPath := filepath.Join(e.work, "corpus.jsonl")
	if name != "refit" {
		if err := writeCorpus(corpusPath, refitCorpusSeed, refitRecipes); err != nil {
			return err
		}
	}
	opts := pipeline.DefaultOptions()
	opts.ShardCount = 2
	out, err := pipeline.RunStream(pipeline.FileSource(corpusPath), opts)
	if err != nil {
		return err
	}
	stage := map[string]float64{}
	for _, st := range out.Timings {
		stage[st.Stage] = st.Elapsed.Seconds()
	}
	m.set("pipeline.word2vec_s", stage["word2vec_filter"], "s")
	m.set("pipeline.ingest_s", stage["dataset_filter"], "s")
	m.set("pipeline.model_s", stage["model"], "s")

	var encMS, pubMS, promMS, fetchMS []float64
	var bundle []byte
	for j := 0; j < layerReps; j++ {
		start := time.Now()
		bundle, _, err = out.EncodeBundle()
		encMS = append(encMS, msSince(start))
		if err != nil {
			return err
		}
		st, err := storage.Open("fs:"+filepath.Join(e.work, fmt.Sprintf("traced-store-%d", j)), storage.RobustOptions{})
		if err != nil {
			return err
		}
		reg := storage.NewRegistry(st)
		ctx := context.Background()
		start = time.Now()
		gen, err := reg.Publish(ctx, bundle, "bench")
		pubMS = append(pubMS, msSince(start))
		if err != nil {
			return err
		}
		start = time.Now()
		err = reg.Promote(ctx, gen.ID)
		promMS = append(promMS, msSince(start))
		if err != nil {
			return err
		}
		start = time.Now()
		g, err := reg.Promoted(ctx)
		if err == nil {
			_, err = reg.Fetch(ctx, g)
		}
		fetchMS = append(fetchMS, msSince(start))
		if err != nil {
			return err
		}
	}
	m.set("pipeline.encode_bundle_ms", median(encMS), "ms")
	m.set("storage.publish_ms", median(pubMS), "ms")
	m.set("storage.promote_ms", median(promMS), "ms")
	m.set("storage.fetch_ms", median(fetchMS), "ms")

	// Gibbs sweeps over the refit documents.
	data := &core.Data{V: out.Dict.Len()}
	for _, d := range out.Docs {
		data.Words = append(data.Words, d.TermIDs)
		data.Gel = append(data.Gel, d.Gel)
		data.Emu = append(data.Emu, d.Emulsion)
	}
	smp, err := core.NewSampler(data, pipeline.DefaultOptions().Model)
	if err != nil {
		return err
	}
	var sweeps []float64
	for j := 0; j < 10; j++ {
		start := time.Now()
		if err := smp.Sweep(); err != nil {
			return err
		}
		sweeps = append(sweeps, msSince(start))
	}
	m.set("core.sweep_ms", median(sweeps), "ms")
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// discardWriter is a ResponseWriter that keeps nothing, so the
// access-log loop times the middleware alone.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}
