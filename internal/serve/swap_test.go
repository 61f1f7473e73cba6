package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// TestSwapOutputUnderLoad is the zero-downtime acceptance test: while
// /annotate is hammered at exactly pool concurrency, the model is
// swapped repeatedly. Every request must succeed — no 5xx, no shed, no
// drop — and /readyz must stay green throughout.
func TestSwapOutputUnderLoad(t *testing.T) {
	opts := quietOptions()
	opts.Pool = 4
	opts.FoldInIters = 5 // keep each annotation cheap so the hammer cycles fast
	s := newTestServer(t, opts)
	h := s.Handler()

	var (
		stop     atomic.Bool
		served   atomic.Int64
		statuses sync.Map // status code → *atomic.Int64
	)
	count := func(code int) {
		v, _ := statuses.LoadOrStore(code, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
	}

	var wg sync.WaitGroup
	for i := 0; i < opts.Pool; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rec := postAnnotate(h, jellyJSON)
				count(rec.Code)
				if rec.Code == http.StatusOK {
					served.Add(1)
				}
			}
		}()
	}
	// Readiness watcher: /readyz must never flap during swaps.
	readyzFailures := make(chan int, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
			if rec.Code != http.StatusOK {
				select {
				case readyzFailures <- rec.Code:
				default:
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const swaps = 8
	for i := 0; i < swaps; i++ {
		if err := s.SwapOutput(cloneOutput(t)); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond) // let requests land on each generation
	}
	stop.Store(true)
	wg.Wait()

	statuses.Range(func(code, n any) bool {
		c := code.(int)
		if c != http.StatusOK {
			t.Errorf("status %d seen %d times under swap; want only 200s", c, n.(*atomic.Int64).Load())
		}
		return true
	})
	if served.Load() == 0 {
		t.Fatal("hammer produced no successful annotations; test proved nothing")
	}
	select {
	case code := <-readyzFailures:
		t.Errorf("/readyz answered %d during swaps", code)
	default:
	}
	if got := s.Stats().Generation; got != swaps+1 {
		t.Errorf("generation %d after %d swaps on a fresh server, want %d", got, swaps, swaps+1)
	}
	if shed := s.Stats().Shed; shed != 0 {
		t.Errorf("%d requests shed at pool-level concurrency; swaps must not steal slots", shed)
	}
}

// TestSwapOutputConcurrent: parallel swaps serialize safely and every
// one lands (generation counts them all).
func TestSwapOutputConcurrent(t *testing.T) {
	s := newTestServer(t, quietOptions())
	var wg sync.WaitGroup
	const n = 6
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.SwapOutput(cloneOutput(t)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := s.Stats().Generation; got != n+1 {
		t.Errorf("generation %d, want %d", got, n+1)
	}
}

// cloneOutput returns the fixture with a distinct Output and Model,
// as a real reload produces: it decodes a fresh bundle. Swapping the
// very same *pipeline.Output in while it serves is not supported:
// buildPool installs fold-in telemetry on the model.
func cloneOutput(t *testing.T) *pipeline.Output {
	t.Helper()
	return cloneOf(t, fixtureOutput(t))
}

// cloneOf is cloneOutput for an arbitrary source output.
func cloneOf(t *testing.T, src *pipeline.Output) *pipeline.Output {
	t.Helper()
	b, _, err := src.EncodeBundle()
	if err != nil {
		t.Fatal(err)
	}
	o, err := pipeline.LoadBundle(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func postReload(h http.Handler, token string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/admin/reload", nil)
	if token != "" {
		req.Header.Set("X-Admin-Token", token)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestAdminReload covers the gated endpoint: token enforcement, a
// successful swap bumping the generation, and a failing reload source
// answering 500 while the old model keeps serving.
func TestAdminReload(t *testing.T) {
	var fail atomic.Bool
	opts := quietOptions()
	opts.AdminToken = "sekrit"
	var srv *Server
	opts.Reload = func(ctx context.Context) (*pipeline.Output, error) {
		if fail.Load() {
			return nil, errors.New("bundle file vanished")
		}
		return cloneOutput(t), nil
	}
	srv = newTestServer(t, opts)
	h := srv.Handler()

	if rec := postReload(h, ""); rec.Code != http.StatusForbidden {
		t.Errorf("tokenless reload: %d, want 403", rec.Code)
	}
	if rec := postReload(h, "wrong"); rec.Code != http.StatusForbidden {
		t.Errorf("wrong-token reload: %d, want 403", rec.Code)
	}
	rec := postReload(h, "sekrit")
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: %d, body %s", rec.Code, rec.Body)
	}
	var resp map[string]int64
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp["generation"] != 2 {
		t.Errorf("generation %d after reload, want 2", resp["generation"])
	}

	// A failing source must not take the server down or swap anything.
	fail.Store(true)
	if rec := postReload(h, "sekrit"); rec.Code != http.StatusInternalServerError {
		t.Errorf("failed reload: %d, want 500", rec.Code)
	}
	if got := srv.Stats().Generation; got != 2 {
		t.Errorf("failed reload changed generation to %d", got)
	}
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusOK {
		t.Errorf("annotate after failed reload: %d", rec.Code)
	}
}

// TestAdminReloadUnmounted: without a reload source the endpoint does
// not exist.
func TestAdminReloadUnmounted(t *testing.T) {
	s := newTestServer(t, quietOptions())
	if rec := postReload(s.Handler(), "any"); rec.Code != http.StatusNotFound {
		t.Errorf("unmounted /admin/reload: %d, want 404", rec.Code)
	}
}

// TestReloadWithoutSource: the programmatic path errors cleanly too.
func TestReloadWithoutSource(t *testing.T) {
	s := newTestServer(t, quietOptions())
	if _, err := s.Reload(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "no reload source") {
		t.Errorf("Reload without source: %v", err)
	}
}
