package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/annotate"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

var (
	outOnce sync.Once
	outFix  *pipeline.Output
	outErr  error
)

// fixtureOutput fits one small model shared by every test; servers
// themselves are cheap and built per test with whatever Options the
// scenario needs.
func fixtureOutput(t testing.TB) *pipeline.Output {
	t.Helper()
	outOnce.Do(func() {
		opts := pipeline.DefaultOptions()
		opts.Corpus.Scale = 0.2
		opts.Model.Iterations = 150
		outFix, outErr = pipeline.Run(opts)
	})
	if outErr != nil {
		t.Fatal(outErr)
	}
	return outFix
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	opts.Logf = t.Logf
	s, err := NewWithOptions(fixtureOutput(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func quietOptions() Options {
	o := DefaultOptions()
	o.AdmitWait = 2 * time.Second
	o.RequestTimeout = 30 * time.Second
	return o
}

const jellyJSON = `{
	"id": "web-1",
	"title": "ゼリー",
	"description": "ぷるぷるです",
	"ingredients": [
		{"name": "ゼラチン", "amount": "5g"},
		{"name": "水", "amount": "400ml"}
	]
}`

func postAnnotate(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/annotate", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestAnnotateEndpoint(t *testing.T) {
	h := newTestServer(t, quietOptions()).Handler()
	rec := postAnnotate(h, jellyJSON)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var card annotate.WireCard
	if err := json.Unmarshal(rec.Body.Bytes(), &card); err != nil {
		t.Fatal(err)
	}
	if card.RecipeID != "web-1" || len(card.Expected) == 0 {
		t.Errorf("card = %+v", card)
	}
	if card.Attr.Hardness <= 0 {
		t.Error("no rheology on card")
	}
}

func TestAnnotateStatusMapping(t *testing.T) {
	h := newTestServer(t, quietOptions()).Handler()
	for _, tc := range []struct {
		body string
		want int
	}{
		{"not json", http.StatusBadRequest},
		{`{"unknown_field": 1}`, http.StatusBadRequest},
		// Well-formed but not annotatable: the client's recipe, not our bug.
		{`{"id":"x","ingredients":[{"name":"水","amount":"100ml"}]}`, http.StatusUnprocessableEntity},
		{`{"id":"x","ingredients":[{"name":"ゼラチン","amount":"たっぷり"}]}`, http.StatusUnprocessableEntity},
	} {
		if rec := postAnnotate(h, tc.body); rec.Code != tc.want {
			t.Errorf("body %q: status %d, want %d (%s)", tc.body, rec.Code, tc.want, rec.Body.String())
		}
	}
	// Wrong method.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/annotate", nil))
	if rec.Code == http.StatusOK {
		t.Error("GET /annotate should fail")
	}
}

func TestAnnotateOversizeBodyIs413(t *testing.T) {
	opts := quietOptions()
	opts.MaxBody = 128
	h := newTestServer(t, opts).Handler()
	big := `{"id":"big","description":"` + strings.Repeat("ぷ", 500) + `"}`
	if rec := postAnnotate(h, big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: status %d, want 413", rec.Code)
	}
}

func TestInternalFailureIs500AndLogged(t *testing.T) {
	script := resilience.NewScript()
	script.Queue("annotate", 1, resilience.Fault{Err: errors.New("model storage corrupted")})
	opts := quietOptions()
	opts.Injector = script
	var mu sync.Mutex
	var logged []string
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s, err := NewWithOptions(fixtureOutput(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusInternalServerError {
		t.Errorf("injected internal error: status %d, want 500", rec.Code)
	}
	mu.Lock()
	ok := len(logged) == 1 && strings.Contains(logged[0], "corrupted")
	mu.Unlock()
	if !ok {
		t.Errorf("internal failure log = %v", logged)
	}
	// The fault was one-shot; the server keeps serving.
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusOK {
		t.Errorf("post-failure request: status %d", rec.Code)
	}
}

func TestPanicRecoveryKeepsServing(t *testing.T) {
	script := resilience.NewScript()
	script.Queue("annotate", 1, resilience.Fault{Panic: "poisoned recipe"})
	opts := quietOptions()
	opts.Injector = script
	s := newTestServer(t, opts)
	h := s.Handler()
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusInternalServerError {
		t.Errorf("panicked request: status %d, want 500", rec.Code)
	}
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusOK {
		t.Errorf("post-panic request: status %d, want 200", rec.Code)
	}
	if st := s.Stats(); st.Panics != 1 || st.InFlight != 0 {
		t.Errorf("stats after panic = %+v (want 1 panic, 0 in flight)", st)
	}
}

func TestStalledAnnotationIs504(t *testing.T) {
	script := resilience.NewScript()
	script.Queue("annotate", 1, resilience.Fault{Delay: 5 * time.Second})
	opts := quietOptions()
	opts.RequestTimeout = 20 * time.Millisecond
	opts.Injector = script
	h := newTestServer(t, opts).Handler()
	start := time.Now()
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusGatewayTimeout {
		t.Errorf("stalled request: status %d, want 504", rec.Code)
	}
	if time.Since(start) > time.Second {
		t.Error("stalled request was not abandoned at its deadline")
	}
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusOK {
		t.Errorf("post-stall request: status %d", rec.Code)
	}
}

// TestCancellationMidFoldIn gives the pool absurdly long chains and a
// short request deadline: the deadline must reach down into the Gibbs
// sweeps and abandon them, answering 504 rather than burning the CPU
// to the end of the chain.
func TestCancellationMidFoldIn(t *testing.T) {
	opts := quietOptions()
	opts.FoldInIters = 5_000_000
	opts.RequestTimeout = 30 * time.Millisecond
	h := newTestServer(t, opts).Handler()
	start := time.Now()
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusGatewayTimeout {
		t.Errorf("mid-fold-in deadline: status %d, want 504", rec.Code)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("fold-in ignored its deadline (took %v)", elapsed)
	}
}

// TestHammerConcurrentAnnotate drives the pooled serve path from many
// goroutines under -race: with a roomy admit budget every request
// must be served, and no annotator may be checked out twice at once
// (the race detector would catch shared fold-in state).
func TestHammerConcurrentAnnotate(t *testing.T) {
	opts := quietOptions()
	opts.Pool = 4
	s := newTestServer(t, opts)
	h := s.Handler()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				req := httptest.NewRequest("POST", "/annotate", bytes.NewReader([]byte(jellyJSON)))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if st := s.Stats(); st.Served != 48 || st.InFlight != 0 {
		t.Errorf("stats = %+v, want 48 served, 0 in flight", st)
	}
}

// TestHammerShedsUnderOverload shrinks the pool to one slow annotator
// with a near-zero admit budget: concurrent requests must be shed
// with 429 + Retry-After instead of piling into an unbounded queue.
func TestHammerShedsUnderOverload(t *testing.T) {
	script := resilience.NewScript()
	script.Queue("annotate", -1, resilience.Fault{Delay: 100 * time.Millisecond})
	opts := quietOptions()
	opts.Pool = 1
	opts.AdmitWait = time.Millisecond
	opts.Injector = script
	s := newTestServer(t, opts)
	h := s.Handler()

	const n = 8
	codes := make(chan int, n)
	retryAfter := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postAnnotate(h, jellyJSON)
			codes <- rec.Code
			if rec.Code == http.StatusTooManyRequests {
				retryAfter <- rec.Header().Get("Retry-After")
			}
		}()
	}
	wg.Wait()
	close(codes)
	close(retryAfter)

	counts := map[int]int{}
	for c := range codes {
		counts[c]++
	}
	if counts[http.StatusOK] < 1 {
		t.Errorf("no request served under overload: %v", counts)
	}
	if counts[http.StatusTooManyRequests] < 1 {
		t.Errorf("tiny pool + tiny admit budget shed nothing: %v", counts)
	}
	if counts[http.StatusOK]+counts[http.StatusTooManyRequests] != n {
		t.Errorf("unexpected status mix: %v", counts)
	}
	for ra := range retryAfter {
		if ra == "" {
			t.Error("429 without Retry-After")
		}
	}
	if st := s.Stats(); st.Shed < 1 {
		t.Errorf("stats = %+v, want shed > 0", st)
	}
}

func TestTopicsEndpoint(t *testing.T) {
	h := newTestServer(t, quietOptions()).Handler()
	req := httptest.NewRequest("GET", "/topics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if body := strings.TrimSpace(rec.Body.String()); !strings.HasPrefix(body, "[") {
		t.Errorf("topics must be a JSON array, got %.40q", body)
	}
	var topics []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &topics); err != nil {
		t.Fatal(err)
	}
	if len(topics) != 10 {
		t.Errorf("%d topics", len(topics))
	}
}

func TestLifecycleReadiness(t *testing.T) {
	s := NewPending(quietOptions())
	h := s.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	// Alive but not ready: the model is still fitting.
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Errorf("pending healthz = %d", rec.Code)
	}
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("pending readyz = %d, want 503", rec.Code)
	}
	if rec := get("/topics"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("pending topics = %d, want 503", rec.Code)
	}
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("pending annotate = %d, want 503", rec.Code)
	} else if rec.Header().Get("Retry-After") == "" {
		t.Error("pending annotate 503 without Retry-After")
	}

	if err := s.SetOutput(fixtureOutput(t)); err != nil {
		t.Fatal(err)
	}
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Errorf("fitted readyz = %d", rec.Code)
	}
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusOK {
		t.Errorf("fitted annotate = %d: %s", rec.Code, rec.Body.String())
	}
	if err := s.SetOutput(fixtureOutput(t)); err == nil {
		t.Error("double SetOutput should fail")
	}

	// Draining: alive, not ready, no new annotations.
	s.BeginDrain()
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Errorf("draining healthz = %d", rec.Code)
	}
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", rec.Code)
	}
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining annotate = %d, want 503", rec.Code)
	}
}

func TestStatusz(t *testing.T) {
	s := newTestServer(t, quietOptions())
	h := s.Handler()
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusOK {
		t.Fatalf("annotate failed: %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("statusz = %d", rec.Code)
	}
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.Served != 1 || st.Pool < 1 {
		t.Errorf("statusz = %+v", st)
	}
}

// TestGracefulDrain runs a real listener: SIGTERM (modelled as
// context cancellation) must let the in-flight annotation finish,
// then stop accepting, within the drain budget.
func TestGracefulDrain(t *testing.T) {
	script := resilience.NewScript()
	script.Queue("annotate", -1, resilience.Fault{Delay: 200 * time.Millisecond})
	opts := quietOptions()
	opts.Injector = script
	s := newTestServer(t, opts)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	hs := &http.Server{Handler: s.Handler()}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(ctx, hs, s, ln, 2*time.Second) }()

	// One slow request in flight…
	inFlight := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/annotate", "application/json", strings.NewReader(jellyJSON))
		if err != nil {
			inFlight <- err
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			inFlight <- fmt.Errorf("in-flight request finished with %d", resp.StatusCode)
			return
		}
		inFlight <- nil
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the annotator
	cancel()                          // "SIGTERM"

	if err := <-inFlight; err != nil {
		t.Errorf("in-flight request during drain: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("drain = %v, want clean nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if s.Ready() {
		t.Error("server still ready after drain")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewWithOptions(&pipeline.Output{}, DefaultOptions()); err == nil {
		t.Error("unfitted output should fail")
	}
}

// TestMetricsEndpoint drives one annotation through the server and
// checks /metrics exposes the serving counters, the per-route latency
// histogram, and the fold-in telemetry in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, quietOptions())
	h := s.Handler()
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusOK {
		t.Fatalf("annotate status %d: %s", rec.Code, rec.Body.String())
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE serve_annotate_served_total counter",
		"serve_annotate_served_total 1",
		"serve_shed_total 0",
		"serve_pool_size",
		"serve_ready 1",
		"# TYPE http_request_duration_seconds histogram",
		`http_request_duration_seconds_bucket{le="+Inf",route="/annotate"} 1`,
		`http_requests_total{code="2xx",route="/annotate"} 1`,
		"annotate_foldin_seconds_count 1",
		"annotate_foldin_sweeps_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

// TestMetricsSharedRegistry: a caller-supplied registry is the one the
// server records into, so pipeline and sampler series share the page.
func TestMetricsSharedRegistry(t *testing.T) {
	opts := quietOptions()
	opts.Metrics = obs.NewRegistry()
	opts.Metrics.Counter("pipeline_stage_seconds_total", "external series", nil).Inc()
	s := newTestServer(t, opts)
	if s.Metrics() != opts.Metrics {
		t.Fatal("server did not adopt the supplied registry")
	}
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "pipeline_stage_seconds_total") || !strings.Contains(out, "serve_ready") {
		t.Errorf("shared registry exposition missing series:\n%s", out)
	}
}

// TestPprofGating: the profiling endpoints exist only when opted in.
func TestPprofGating(t *testing.T) {
	get := func(h http.Handler, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code
	}
	off := newTestServer(t, quietOptions()).Handler()
	if code := get(off, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof off: /debug/pprof/ = %d, want 404", code)
	}
	opts := quietOptions()
	opts.Pprof = true
	on := newTestServer(t, opts).Handler()
	if code := get(on, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof on: /debug/pprof/ = %d, want 200", code)
	}
	if code := get(on, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof on: cmdline = %d, want 200", code)
	}
}

// TestAccessLogLines: with an AccessLog logger installed, each request
// produces one structured line carrying method, path, and status —
// including requests that fail.
func TestAccessLogLines(t *testing.T) {
	var buf bytes.Buffer
	opts := quietOptions()
	opts.AccessLog = obs.NewLogger(&buf, "json")
	h := newTestServer(t, opts).Handler()

	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusOK {
		t.Fatalf("annotate status %d", rec.Code)
	}
	if rec := postAnnotate(h, "{not json"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body status %d", rec.Code)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d access-log lines, want 2:\n%s", len(lines), buf.String())
	}
	for i, wantStatus := range []float64{200, 400} {
		var entry map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &entry); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if entry["method"] != "POST" || entry["path"] != "/annotate" {
			t.Errorf("line %d = %v", i, entry)
		}
		if entry["status"] != wantStatus {
			t.Errorf("line %d status = %v, want %v", i, entry["status"], wantStatus)
		}
	}
}

// TestStatuszTimeouts: the timeout counter reaches /statusz.
func TestStatuszTimeouts(t *testing.T) {
	opts := quietOptions()
	script := resilience.NewScript()
	script.Queue("annotate", 1, resilience.Fault{Err: context.DeadlineExceeded})
	opts.Injector = script
	s := newTestServer(t, opts)
	h := s.Handler()
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rec.Code)
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Errorf("Stats().Timeouts = %d, want 1", st.Timeouts)
	}
}
