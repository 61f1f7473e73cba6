package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postBatch(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/annotate/batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// jellyWithID is the fixture recipe under a caller-chosen ID, so
// ordering tests can tell results apart.
func jellyWithID(id string) string {
	return fmt.Sprintf(`{
		"id": %q,
		"title": "ゼリー",
		"description": "ぷるぷるです",
		"ingredients": [
			{"name": "ゼラチン", "amount": "5g"},
			{"name": "水", "amount": "400ml"}
		]
	}`, id)
}

func decodeBatch(t *testing.T, rec *httptest.ResponseRecorder) BatchResponse {
	t.Helper()
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("batch response not JSON: %v\n%s", err, rec.Body.String())
	}
	return resp
}

// TestBatchEndpointOrderingAndMetrics: results come back index-aligned
// with the request regardless of which worker served them, and
// every served item counts into the serving metrics.
func TestBatchEndpointOrderingAndMetrics(t *testing.T) {
	opts := quietOptions()
	opts.Pool = 3
	s := newTestServer(t, opts)
	h := s.Handler()

	ids := []string{"b-0", "b-1", "b-2", "b-3", "b-4"}
	recipes := make([]string, len(ids))
	for i, id := range ids {
		recipes[i] = jellyWithID(id)
	}
	rec := postBatch(h, `{"recipes":[`+strings.Join(recipes, ",")+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBatch(t, rec)
	if len(resp.Results) != len(ids) || resp.Served != len(ids) || resp.Failed != 0 {
		t.Fatalf("served=%d failed=%d results=%d, want %d/0/%d",
			resp.Served, resp.Failed, len(resp.Results), len(ids), len(ids))
	}
	for i, item := range resp.Results {
		if item.Index != i {
			t.Errorf("results[%d].Index = %d", i, item.Index)
		}
		if item.Card == nil || item.Card.RecipeID != ids[i] {
			t.Errorf("results[%d] = %+v, want card for %s", i, item, ids[i])
		}
	}
	if st := s.Stats(); st.Served != int64(len(ids)) || st.InFlight != 0 {
		t.Errorf("stats = %+v, want %d served and an empty gate", st, len(ids))
	}

	// The batch counter and the per-item served counter reach /metrics.
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	body := mrec.Body.String()
	for _, want := range []string{
		"serve_annotate_batches_total 1",
		fmt.Sprintf("serve_annotate_served_total %d", len(ids)),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestBatchPerItemErrors: a recipe the model cannot cover fails at its
// own index with the status a single request would have seen, without
// failing its siblings.
func TestBatchPerItemErrors(t *testing.T) {
	h := newTestServer(t, quietOptions()).Handler()
	body := `{"recipes":[` + strings.Join([]string{
		jellyWithID("ok-1"),
		`{"id":"no-gel","ingredients":[{"name":"水","amount":"100ml"}]}`,
		`{"id":"bad-amount","ingredients":[{"name":"ゼラチン","amount":"たっぷり"}]}`,
		`null`,
		jellyWithID("ok-2"),
	}, ",") + `]}`
	rec := postBatch(h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBatch(t, rec)
	if resp.Served != 2 || resp.Failed != 3 {
		t.Fatalf("served=%d failed=%d, want 2/3", resp.Served, resp.Failed)
	}
	wantStatus := []int{0, http.StatusUnprocessableEntity, http.StatusUnprocessableEntity, http.StatusBadRequest, 0}
	for i, item := range resp.Results {
		if wantStatus[i] == 0 {
			if item.Card == nil || item.Error != "" {
				t.Errorf("results[%d] = %+v, want a card", i, item)
			}
			continue
		}
		if item.Card != nil || item.Status != wantStatus[i] || item.Error == "" {
			t.Errorf("results[%d] = %+v, want status %d with an error", i, item, wantStatus[i])
		}
	}
}

// TestBatchValidation covers the request-shape rejections: bad JSON,
// empty batches, batches over MaxBatch, oversize bodies, not-ready
// servers.
func TestBatchValidation(t *testing.T) {
	opts := quietOptions()
	opts.MaxBatch = 2
	h := newTestServer(t, opts).Handler()
	if rec := postBatch(h, "not json"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", rec.Code)
	}
	if rec := postBatch(h, `{"recipes":[]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400", rec.Code)
	}
	three := `{"recipes":[` + strings.Join([]string{jellyWithID("a"), jellyWithID("b"), jellyWithID("c")}, ",") + `]}`
	if rec := postBatch(h, three); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("over MaxBatch: %d, want 413", rec.Code)
	}

	small := quietOptions()
	small.MaxBatch = 2
	small.MaxBody = 64 // batch cap = 128 bytes
	hs := newTestServer(t, small).Handler()
	big := `{"recipes":[{"id":"big","description":"` + strings.Repeat("ぷ", 300) + `"}]}`
	if rec := postBatch(hs, big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: %d, want 413", rec.Code)
	}

	pending := NewPending(quietOptions()).Handler()
	if rec := postBatch(pending, `{"recipes":[`+jellyWithID("x")+`]}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("not ready: %d, want 503", rec.Code)
	}
}

// TestBatchCancellationShedsRemainder: when the request deadline dies
// mid-batch, the in-flight chain is abandoned and the items not yet
// started are shed without burning sweeps — the batch still answers
// with per-item statuses instead of an empty 504.
func TestBatchCancellationShedsRemainder(t *testing.T) {
	opts := quietOptions()
	opts.Pool = 1
	opts.FoldInIters = 5_000_000 // one chain outlives the deadline by itself
	opts.RequestTimeout = 50 * time.Millisecond
	s := newTestServer(t, opts)
	h := s.Handler()

	recipes := make([]string, 4)
	for i := range recipes {
		recipes[i] = jellyWithID(fmt.Sprintf("c-%d", i))
	}
	start := time.Now()
	rec := postBatch(h, `{"recipes":[`+strings.Join(recipes, ",")+`]}`)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("batch ignored its deadline (took %v)", elapsed)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBatch(t, rec)
	if resp.Served != 0 || resp.Failed != len(recipes) {
		t.Fatalf("served=%d failed=%d, want 0/%d", resp.Served, resp.Failed, len(recipes))
	}
	for i, item := range resp.Results {
		if item.Card != nil || item.Status != http.StatusGatewayTimeout {
			t.Errorf("results[%d] = %+v, want shed with 504", i, item)
		}
	}
	if st := s.Stats(); st.Timeouts < int64(len(recipes)) || st.InFlight != 0 {
		t.Errorf("stats = %+v, want every item counted as a timeout", st)
	}
}

// TestBatchParallelAcrossPool: a batch on a four-slot gate must
// actually fan out — with per-item delays injected, the wall clock of
// the batch stays well under the serial sum.
func TestBatchParallelAcrossPool(t *testing.T) {
	opts := quietOptions()
	opts.Pool = 4
	s := newTestServer(t, opts)
	h := s.Handler()

	recipes := make([]string, 8)
	for i := range recipes {
		recipes[i] = jellyWithID(fmt.Sprintf("p-%d", i))
	}
	body := `{"recipes":[` + strings.Join(recipes, ",") + `]}`

	rec := postBatch(h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBatch(t, rec)
	if resp.Served != len(recipes) {
		t.Fatalf("served %d/%d: %s", resp.Served, len(recipes), rec.Body.String())
	}
	// All gate slots returned; a second batch still works.
	if st := s.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight %d after batch, want 0", st.InFlight)
	}
	if rec := postBatch(h, body); rec.Code != http.StatusOK {
		t.Errorf("second batch: %d", rec.Code)
	}
}
