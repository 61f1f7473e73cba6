package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
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
	altOnce sync.Once
	altFix  *pipeline.Output
	altErr  error
)

// altOutput fits a second model distinguishable from fixtureOutput —
// different seed and sweep count, so its cards differ byte-for-byte.
// The swap-invalidation test needs it: after a generation bump, a
// stale cache entry and a fresh fold-in must disagree visibly.
func altOutput(t *testing.T) *pipeline.Output {
	t.Helper()
	altOnce.Do(func() {
		opts := pipeline.DefaultOptions()
		opts.Corpus.Scale = 0.2
		opts.Model.Iterations = 80
		opts.Model.Seed = 99
		altFix, altErr = pipeline.Run(opts)
	})
	if altErr != nil {
		t.Fatal(altErr)
	}
	return altFix
}

// cacheOptions is quietOptions with the cache on and a one-slot gate.
// Every fold-in uses Seed whatever the slot, so byte identity does not
// need the single slot; it keeps these tests' fold-ins one at a time.
func cacheOptions() Options {
	o := quietOptions()
	o.Pool = 1
	o.Cache = true
	return o
}

// foldInCount reads how many Gibbs fold-in chains this server has run —
// the ground truth for "the cache (or single-flight) spared the work".
func foldInCount(s *Server) int64 {
	return s.Metrics().Histogram("annotate_foldin_seconds", "", nil, nil).Count()
}

// TestCacheHitByteIdentical is the core cache contract: a repeat
// request is served from memory (X-Annotation-Cache: hit, no second
// fold-in) and its body is byte-identical to the fresh response — and
// to what a cache-less server computes for the same recipe.
func TestCacheHitByteIdentical(t *testing.T) {
	s := newTestServer(t, cacheOptions())
	h := s.Handler()

	first := postAnnotate(h, jellyJSON)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d: %s", first.Code, first.Body.String())
	}
	if state := first.Header().Get("X-Annotation-Cache"); state != "miss" {
		t.Errorf("first request cache state %q, want miss", state)
	}
	second := postAnnotate(h, jellyJSON)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: %d: %s", second.Code, second.Body.String())
	}
	if state := second.Header().Get("X-Annotation-Cache"); state != "hit" {
		t.Errorf("second request cache state %q, want hit", state)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("hit differs from the fresh response:\n%s\nvs\n%s", first.Body, second.Body)
	}

	// The key hashes the canonical (resolved, sorted) recipe, so
	// reordering the ingredients is the same request.
	reordered := `{
		"id": "web-1",
		"title": "ゼリー",
		"description": "ぷるぷるです",
		"ingredients": [
			{"name": "水", "amount": "400ml"},
			{"name": "ゼラチン", "amount": "5g"}
		]
	}`
	third := postAnnotate(h, reordered)
	if state := third.Header().Get("X-Annotation-Cache"); state != "hit" {
		t.Errorf("reordered ingredients cache state %q, want hit", state)
	}

	if n := foldInCount(s); n != 1 {
		t.Errorf("%d fold-ins for three identical requests, want 1", n)
	}
	st := s.Stats()
	if st.Cache == nil || st.Cache.Hits != 2 || st.Cache.Misses != 1 || st.Cache.Size != 1 {
		t.Errorf("cache stats = %+v, want 2 hits / 1 miss / size 1", st.Cache)
	}
	if st.Served != 3 {
		t.Errorf("served = %d, want 3 (hits count as served)", st.Served)
	}

	// A cache-less server folding the same recipe on the same model and
	// seed produces the very bytes the cache replays.
	plain := quietOptions()
	plain.Pool = 1
	fresh := postAnnotate(newTestServer(t, plain).Handler(), jellyJSON)
	if fresh.Code != http.StatusOK {
		t.Fatalf("fresh server: %d", fresh.Code)
	}
	if !bytes.Equal(fresh.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("cached body differs from a cache-less fold-in:\n%s\nvs\n%s", second.Body, fresh.Body)
	}
}

// TestCacheGenerationSwapInvalidates: a model swap bumps the
// generation in the cache key, so the first request after a swap is a
// miss that folds in on the new model — byte-for-byte the response a
// fresh server on that model gives, not the stale generation's bytes.
func TestCacheGenerationSwapInvalidates(t *testing.T) {
	s := newTestServer(t, cacheOptions())
	h := s.Handler()

	stale := postAnnotate(h, jellyJSON)
	if stale.Code != http.StatusOK {
		t.Fatalf("pre-swap request: %d", stale.Code)
	}
	if rec := postAnnotate(h, jellyJSON); rec.Header().Get("X-Annotation-Cache") != "hit" {
		t.Fatalf("pre-swap repeat not a hit")
	}

	if err := s.SwapOutput(cloneOf(t, altOutput(t))); err != nil {
		t.Fatal(err)
	}
	swapped := postAnnotate(h, jellyJSON)
	if swapped.Code != http.StatusOK {
		t.Fatalf("post-swap request: %d: %s", swapped.Code, swapped.Body.String())
	}
	if state := swapped.Header().Get("X-Annotation-Cache"); state != "miss" {
		t.Errorf("post-swap cache state %q, want miss (generation changed)", state)
	}
	if bytes.Equal(swapped.Body.Bytes(), stale.Body.Bytes()) {
		t.Error("post-swap response equals the stale generation's bytes; cache not invalidated")
	}

	// Byte-for-byte what the new model computes, verified against an
	// independent cache-less server on the same model clone and seed.
	plain := quietOptions()
	plain.Pool = 1
	plain.Logf = t.Logf
	ps, err := NewWithOptions(cloneOf(t, altOutput(t)), plain)
	if err != nil {
		t.Fatal(err)
	}
	fresh := postAnnotate(ps.Handler(), jellyJSON)
	if fresh.Code != http.StatusOK {
		t.Fatalf("fresh alt server: %d", fresh.Code)
	}
	if !bytes.Equal(fresh.Body.Bytes(), swapped.Body.Bytes()) {
		t.Errorf("post-swap miss differs from a fresh fold-in on the new model:\n%s\nvs\n%s",
			swapped.Body, fresh.Body)
	}

	// The new generation caches normally from there.
	again := postAnnotate(h, jellyJSON)
	if state := again.Header().Get("X-Annotation-Cache"); state != "hit" {
		t.Errorf("post-swap repeat cache state %q, want hit", state)
	}
	if !bytes.Equal(again.Body.Bytes(), swapped.Body.Bytes()) {
		t.Error("post-swap hit differs from the post-swap miss")
	}
}

// TestCacheLRUBound drives the cache far past its capacity: the bound
// holds, evictions are counted, and recency decides who survives.
func TestCacheLRUBound(t *testing.T) {
	c := newAnnotCache(3, obs.NewRegistry())
	key := func(i int) cacheKey {
		return cacheKey{gen: 1, hash: [sha256.Size]byte{byte(i), byte(i >> 8)}}
	}
	card := &annotate.WireCard{RecipeID: "churn"}
	for i := 0; i < 10; i++ {
		c.put(key(i), card)
	}
	if n := c.Len(); n != 3 {
		t.Fatalf("cache size %d after churn, want 3", n)
	}
	if v := c.evictions.Value(); v != 7 {
		t.Errorf("evictions = %d, want 7", v)
	}
	if _, ok := c.get(key(9)); !ok {
		t.Error("most recent entry evicted")
	}
	if _, ok := c.get(key(0)); ok {
		t.Error("oldest entry survived a full churn")
	}

	// Recency: touching 7 keeps it alive through two more inserts that
	// evict the colder 8 and 9.
	if _, ok := c.get(key(7)); !ok {
		t.Fatal("entry 7 missing before the recency check")
	}
	c.put(key(10), card)
	c.put(key(11), card)
	if _, ok := c.get(key(7)); !ok {
		t.Error("recently touched entry evicted before colder ones")
	}
	if _, ok := c.get(key(8)); ok {
		t.Error("cold entry outlived the LRU bound")
	}

	// Re-putting an existing key refreshes, not duplicates.
	c.put(key(7), card)
	if n := c.Len(); n != 3 {
		t.Errorf("size %d after refreshing an existing key, want 3", n)
	}
}

// TestCacheSingleFlight posts N identical requests concurrently while
// the only fold-in is held slow: exactly one Gibbs chain runs, every
// request answers 200 with identical bytes, and exactly one of them
// led the flight.
func TestCacheSingleFlight(t *testing.T) {
	script := resilience.NewScript()
	script.Queue("annotate", 1, resilience.Fault{Delay: 300 * time.Millisecond})
	opts := cacheOptions()
	opts.Injector = script
	s := newTestServer(t, opts)
	h := s.Handler()

	const n = 8
	var (
		wg     sync.WaitGroup
		codes  [n]int
		bodies [n][]byte
		states [n]string
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postAnnotate(h, jellyJSON)
			codes[i] = rec.Code
			bodies[i] = rec.Body.Bytes()
			states[i] = rec.Header().Get("X-Annotation-Cache")
		}(i)
	}
	wg.Wait()

	misses := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Errorf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs from request 0", i)
		}
		switch states[i] {
		case "miss":
			misses++
		case "wait", "hit":
		default:
			t.Errorf("request %d cache state %q", i, states[i])
		}
	}
	if misses != 1 {
		t.Errorf("%d leaders for %d identical concurrent requests, want exactly 1", misses, n)
	}
	if fc := foldInCount(s); fc != 1 {
		t.Errorf("%d fold-ins for %d identical concurrent requests, want exactly 1", fc, n)
	}
	st := s.Stats()
	if st.Cache == nil || st.Cache.Leaders != 0 {
		t.Errorf("cache stats = %+v, want no leader left in flight", st.Cache)
	}
	if st.Served != n {
		t.Errorf("served = %d, want %d", st.Served, n)
	}
}

// TestCacheWaiterDeadline: a waiter whose own deadline expires answers
// 504 for itself without poisoning the leader — the leader still
// completes, caches, and serves everyone after.
func TestCacheWaiterDeadline(t *testing.T) {
	script := resilience.NewScript()
	script.Queue("annotate", 1, resilience.Fault{Delay: 400 * time.Millisecond})
	opts := cacheOptions()
	opts.Injector = script
	s := newTestServer(t, opts)
	h := s.Handler()

	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() { leader <- postAnnotate(h, jellyJSON) }()
	time.Sleep(50 * time.Millisecond) // let the leader claim the flight

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest("POST", "/annotate", strings.NewReader(jellyJSON)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("expired waiter: status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "in-flight") {
		t.Errorf("expired waiter body %q does not name the in-flight wait", rec.Body.String())
	}

	lrec := <-leader
	if lrec.Code != http.StatusOK {
		t.Errorf("leader after waiter expiry: status %d, want 200", lrec.Code)
	}
	after := postAnnotate(h, jellyJSON)
	if after.Code != http.StatusOK || after.Header().Get("X-Annotation-Cache") != "hit" {
		t.Errorf("post-expiry request: status %d, state %q, want a 200 hit",
			after.Code, after.Header().Get("X-Annotation-Cache"))
	}
	if fc := foldInCount(s); fc != 1 {
		t.Errorf("%d fold-ins, want 1 (the expired waiter must not refold)", fc)
	}
	if s.Stats().Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", s.Stats().Timeouts)
	}
}

// TestBatchCacheReuse: the batch pre-pass answers cached items without
// pool work, collapses intra-batch duplicates onto one fold-in, and
// shares entries with the single-request endpoint.
func TestBatchCacheReuse(t *testing.T) {
	opts := cacheOptions()
	opts.Pool = 2
	s := newTestServer(t, opts)
	h := s.Handler()

	custard := `{
		"id": "custard-1",
		"title": "プリン",
		"ingredients": [
			{"name": "ゼラチン", "amount": "7g"},
			{"name": "牛乳", "amount": "300ml"}
		]
	}`
	body := `{"recipes":[` + jellyJSON + `,` + jellyJSON + `,` + custard + `]}`
	rec := postBatch(h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("first batch: %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBatch(t, rec)
	if resp.Served != 3 || resp.Failed != 0 {
		t.Fatalf("first batch served=%d failed=%d, want 3/0", resp.Served, resp.Failed)
	}
	dup0, _ := json.Marshal(resp.Results[0].Card)
	dup1, _ := json.Marshal(resp.Results[1].Card)
	if !bytes.Equal(dup0, dup1) {
		t.Error("intra-batch duplicates answered with different cards")
	}
	if fc := foldInCount(s); fc != 2 {
		t.Errorf("%d fold-ins for a 3-item batch with one duplicate, want 2", fc)
	}

	// The identical batch again: all three from the cache, zero new
	// fold-ins, and the gate never claimed a slot for it.
	rec = postBatch(h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("second batch: %d", rec.Code)
	}
	if resp = decodeBatch(t, rec); resp.Served != 3 {
		t.Fatalf("second batch served=%d, want 3", resp.Served)
	}
	if fc := foldInCount(s); fc != 2 {
		t.Errorf("%d fold-ins after an all-hit batch, want still 2", fc)
	}

	// Entries are shared with /annotate: the same recipe posted singly
	// is a hit, and vice-versa cached singles serve later batches.
	single := postAnnotate(h, custard)
	if single.Code != http.StatusOK || single.Header().Get("X-Annotation-Cache") != "hit" {
		t.Errorf("single request after batch: status %d, state %q, want a hit",
			single.Code, single.Header().Get("X-Annotation-Cache"))
	}
	if st := s.Stats(); st.Cache == nil || st.Cache.Hits < 4 || st.Cache.Size != 2 {
		t.Errorf("cache stats = %+v, want ≥4 hits over 2 entries", st.Cache)
	}
}

// TestDrainGates503WithRetryAfter is the readiness-sweep regression:
// after BeginDrain every model-backed route — /annotate,
// /annotate/batch, and /topics (which used to check raw readiness and
// keep serving through a drain) — answers 503 with Retry-After.
func TestDrainGates503WithRetryAfter(t *testing.T) {
	s := newTestServer(t, quietOptions())
	h := s.Handler()
	s.BeginDrain()

	for _, tc := range []struct {
		method, path, body string
	}{
		{"POST", "/annotate", jellyJSON},
		{"POST", "/annotate/batch", `{"recipes":[` + jellyJSON + `]}`},
		{"GET", "/topics", ""},
	} {
		var rd *strings.Reader
		if tc.body != "" {
			rd = strings.NewReader(tc.body)
		} else {
			rd = strings.NewReader("")
		}
		req := httptest.NewRequest(tc.method, tc.path, rd)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s while draining: %d, want 503", tc.method, tc.path, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s %s while draining: 503 without Retry-After", tc.method, tc.path)
		}
	}
}

// TestCacheStatuszAndMetrics: the cache surfaces on /statusz and in
// the Prometheus exposition; a cache-less server reports neither.
func TestCacheStatuszAndMetrics(t *testing.T) {
	s := newTestServer(t, cacheOptions())
	h := s.Handler()
	for i := 0; i < 2; i++ {
		if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil {
		t.Fatal("statusz has no cache block with the cache enabled")
	}
	if st.Cache.Capacity != DefaultCacheSize || st.Cache.Size != 1 ||
		st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("statusz cache = %+v", st.Cache)
	}

	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	body := mrec.Body.String()
	for _, want := range []string{
		"serve_cache_hits_total 1",
		"serve_cache_misses_total 1",
		"serve_cache_inflight_waiters_total 0",
		"serve_cache_evictions_total 0",
		"serve_cache_size 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	off := newTestServer(t, quietOptions())
	if off.Stats().Cache != nil {
		t.Error("statusz reports a cache block with the cache disabled")
	}
}
