package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/recipe"
)

// ingestServer builds a test server with an ingest manager over temp
// dirs, returning both.
func ingestServer(t *testing.T, opts Options) (*Server, *ingest.Manager) {
	t.Helper()
	mgr, err := ingest.OpenManager(ingest.ManagerOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	opts.Ingest = mgr
	return newTestServer(t, opts), mgr
}

func postIngest(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestIngestEndpoint: a new recipe earns 202 with seq 1; the same
// recipe again earns 200 with Duplicate set and the original sequence.
func TestIngestEndpoint(t *testing.T) {
	s, mgr := ingestServer(t, quietOptions())
	h := s.Handler()

	rec := postIngest(h, "/ingest", jellyJSON)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var ack IngestAck
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Seq != 1 || ack.Duplicate || ack.RecordsSinceFit != 1 {
		t.Fatalf("ack = %+v", ack)
	}

	rec = postIngest(h, "/ingest", jellyJSON)
	if rec.Code != http.StatusOK {
		t.Fatalf("duplicate status %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Seq != 1 || !ack.Duplicate {
		t.Fatalf("duplicate ack = %+v", ack)
	}
	if st := mgr.WAL().Stats(); st.Records != 1 {
		t.Fatalf("wal records = %d, want 1", st.Records)
	}

	// The ingest block reaches /statusz.
	st := statuszStats(t, h)
	if st.Ingest == nil || st.Ingest.WAL.LastSeq != 1 || st.Ingest.RecordsSinceFit != 1 {
		t.Fatalf("statusz ingest block = %+v", st.Ingest)
	}
}

// TestIngestStatusMapping: malformed bodies are 400, well-formed but
// unresolvable recipes 422, and a draining server answers 503 with
// Retry-After rather than making durability promises it may not keep.
func TestIngestStatusMapping(t *testing.T) {
	s, _ := ingestServer(t, quietOptions())
	h := s.Handler()
	for _, tc := range []struct {
		body string
		want int
	}{
		{"not json", http.StatusBadRequest},
		{`{"unknown_field": 1}`, http.StatusBadRequest},
		{`{"id":"x","ingredients":[{"name":"ゼラチン","amount":"たっぷり"}]}`, http.StatusUnprocessableEntity},
	} {
		if rec := postIngest(h, "/ingest", tc.body); rec.Code != tc.want {
			t.Errorf("body %q: status %d, want %d (%s)", tc.body, rec.Code, tc.want, rec.Body.String())
		}
	}

	s.BeginDrain()
	rec := postIngest(h, "/ingest", jellyJSON)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("draining ingest = %d (Retry-After %q)", rec.Code, rec.Header().Get("Retry-After"))
	}
	if rec := postIngest(h, "/ingest/batch", `{"recipes":[`+jellyJSON+`]}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining batch ingest = %d", rec.Code)
	}
}

// TestIngestWithoutManager: a server built without an ingest manager
// does not mount the routes at all.
func TestIngestWithoutManager(t *testing.T) {
	h := newTestServer(t, quietOptions()).Handler()
	if rec := postIngest(h, "/ingest", jellyJSON); rec.Code != http.StatusNotFound {
		t.Fatalf("/ingest without manager = %d, want 404", rec.Code)
	}
}

// TestIngestBatchEndpoint: items land individually — new, duplicate,
// and invalid in one request — and the response status reflects
// whether anything new was durably accepted.
func TestIngestBatchEndpoint(t *testing.T) {
	s, mgr := ingestServer(t, quietOptions())
	h := s.Handler()

	second := strings.Replace(jellyJSON, "web-1", "web-2", 1)
	bad := `{"id":"bad","ingredients":[{"name":"ゼラチン","amount":"たっぷり"}]}`
	body := fmt.Sprintf(`{"recipes":[%s,%s,%s,%s]}`, jellyJSON, second, jellyJSON, bad)
	rec := postIngest(h, "/ingest/batch", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp IngestBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || resp.Duplicates != 1 || resp.Failed != 1 {
		t.Fatalf("tallies = %+v", resp)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("%d results", len(resp.Results))
	}
	if r := resp.Results[2]; !r.Duplicate || r.Seq != 1 || r.Status != http.StatusOK {
		t.Fatalf("duplicate item = %+v", r)
	}
	if r := resp.Results[3]; r.Status != http.StatusUnprocessableEntity || r.Error == "" {
		t.Fatalf("invalid item = %+v", r)
	}
	if st := mgr.WAL().Stats(); st.Records != 2 {
		t.Fatalf("wal records = %d, want 2", st.Records)
	}

	// An all-duplicate batch accepts nothing: 200.
	rec = postIngest(h, "/ingest/batch", fmt.Sprintf(`{"recipes":[%s]}`, jellyJSON))
	if rec.Code != http.StatusOK {
		t.Fatalf("all-duplicate batch = %d", rec.Code)
	}
	// Shape errors.
	if rec := postIngest(h, "/ingest/batch", `{"recipes":[]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d", rec.Code)
	}
}

// TestIngestAckDurable: the acked recipe survives closing everything
// and replaying the directory cold — the 202 is a durability promise,
// not a cache entry.
func TestIngestAckDurable(t *testing.T) {
	dir := t.TempDir()
	mgr, err := ingest.OpenManager(ingest.ManagerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opts := quietOptions()
	opts.Ingest = mgr
	h := newTestServer(t, opts).Handler()
	if rec := postIngest(h, "/ingest", jellyJSON); rec.Code != http.StatusAccepted {
		t.Fatalf("status %d", rec.Code)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	var got []string
	if err := ingest.Replay(dir, 0, func(seq uint64, doc json.RawMessage) error {
		var r recipe.Recipe
		if err := json.Unmarshal(doc, &r); err != nil {
			return err
		}
		got = append(got, r.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "web-1" {
		t.Fatalf("replayed %v, want [web-1]", got)
	}
}

// TestIngestWarmFoldIn: the synchronous half of the fold-in path — a
// warmed recipe's next /annotate is a cache hit, served without a
// fold-in or a gate slot.
func TestIngestWarmFoldIn(t *testing.T) {
	opts := quietOptions()
	opts.Cache = true
	s, _ := ingestServer(t, opts)
	h := s.Handler()

	var rec recipe.Recipe
	if err := json.Unmarshal([]byte(jellyJSON), &rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Resolve(); err != nil {
		t.Fatal(err)
	}
	s.warmFoldIn(&rec)

	resp := postAnnotate(h, jellyJSON)
	if resp.Code != http.StatusOK {
		t.Fatalf("annotate after warm fold-in: %d", resp.Code)
	}
	st := s.Stats()
	if st.Cache == nil || st.Cache.Hits != 1 {
		t.Fatalf("warm fold-in did not seed the cache: %+v", st.Cache)
	}
}

// TestIngestBeforeModelReady: durability must not wait for a model —
// a pending server (still fitting) accepts ingest while refusing
// annotate.
func TestIngestBeforeModelReady(t *testing.T) {
	mgr, err := ingest.OpenManager(ingest.ManagerOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	opts := quietOptions()
	opts.Logf = t.Logf
	opts.Ingest = mgr
	s := NewPending(opts)
	h := s.Handler()

	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("annotate before ready = %d, want 503", rec.Code)
	}
	rec := postIngest(h, "/ingest", jellyJSON)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest before ready = %d, want 202: %s", rec.Code, rec.Body.String())
	}
}

// TestIngestChaosFollowerZeroErrors is the end-to-end acceptance
// scenario: a follower replica under live annotate load while the
// ingest/refit path publishes and promotes a new generation behind it.
// The follower must serve zero non-200 responses throughout the
// re-fit, the promotion, and its own hot swap.
func TestIngestChaosFollowerZeroErrors(t *testing.T) {
	ctx := ctxServe(t)
	opts := quietOptions()
	opts.Pool = 4
	opts.FoldInIters = 5
	rig := newFollowerRig(t, opts, FollowOptions{Interval: 20 * time.Millisecond})
	h := rig.srv.Handler()

	genA := publishFixture(t, rig.reg, "ingest-base")
	if err := rig.reg.Promote(ctx, genA.ID); err != nil {
		t.Fatal(err)
	}
	if err := rig.fol.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	go rig.fol.Run(runCtx)

	// Live load on the follower for the whole window.
	var stop atomic.Bool
	var bad atomic.Int64
	var served atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < opts.Pool; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rec := postAnnotate(h, jellyJSON)
				if rec.Code != http.StatusOK {
					bad.Add(1)
					t.Errorf("follower answered %d during refit: %s", rec.Code, rec.Body.String())
					return
				}
				served.Add(1)
			}
		}()
	}

	// The "writer" side: a new generation lands the way the refitter
	// lands one — publish, then promote.
	genB := publishFixture(t, rig.reg, "ingest-refit")
	if err := rig.reg.Promote(ctx, genB.ID); err != nil {
		t.Fatal(err)
	}

	// Wait for the follower to converge on the refit generation while
	// load continues.
	deadline := time.Now().Add(5 * time.Second)
	for rig.fol.Status().Generation != genB.ID {
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("follower never converged to generation %d", genB.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Let load run a little on the new generation too.
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if bad.Load() != 0 {
		t.Fatalf("%d non-200 responses during refit+promotion", bad.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no requests served; the test proved nothing")
	}
	t.Logf("served %d requests with zero errors across the promotion", served.Load())
}

// TestIngestBatchOversizeItem: the batch decoder admits bodies up to
// MaxBody × MaxBatch, so one item can individually dwarf what a lone
// /ingest request could carry — but a recipe too large for a WAL
// record must fail as that item's 413, never be acked (the WAL could
// not recover it) and never poison the rest of the batch.
func TestIngestBatchOversizeItem(t *testing.T) {
	s, mgr := ingestServer(t, quietOptions())
	h := s.Handler()

	hugeDoc, err := json.Marshal(recipe.Recipe{
		ID:          "huge-1",
		Title:       "ゼリー",
		Description: strings.Repeat("a", 9<<20),
		Ingredients: []recipe.Ingredient{
			{Name: "ゼラチン", Amount: "5g"},
			{Name: "水", Amount: "400ml"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"recipes":[%s,%s]}`, hugeDoc, jellyJSON)
	rec := postIngest(h, "/ingest/batch", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status %d: %.200s", rec.Code, rec.Body.String())
	}
	var resp IngestBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.Failed != 1 {
		t.Fatalf("tallies = accepted %d failed %d", resp.Accepted, resp.Failed)
	}
	if r := resp.Results[0]; r.Status != http.StatusRequestEntityTooLarge || r.Seq != 0 {
		t.Fatalf("oversize item = %+v, want 413 and no seq", r)
	}
	if r := resp.Results[1]; r.Status != http.StatusAccepted {
		t.Fatalf("normal item = %+v", r)
	}
	if st := mgr.WAL().Stats(); st.Records != 1 {
		t.Fatalf("wal records = %d, want only the normal recipe", st.Records)
	}
}
