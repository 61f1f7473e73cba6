package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/annotate"
	"repro/internal/recipe"
)

// bodyBufPool recycles the request/response byte buffers of the
// annotate and batch endpoints, so steady-state traffic does not
// reallocate bodies per call.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// batchRequest is the wire form of POST /annotate/batch.
type batchRequest struct {
	Recipes []*recipe.Recipe `json:"recipes"`
}

// BatchItem is one recipe's outcome, index-aligned with the request.
// Exactly one of Card or Error is set; Status carries the HTTP status
// the item would have received as a single request. Shared with the
// client SDK.
type BatchItem struct {
	Index  int                `json:"index"`
	Card   *annotate.WireCard `json:"card,omitempty"`
	Error  string             `json:"error,omitempty"`
	Status int                `json:"status,omitempty"`
}

// BatchResponse is the wire form of a batch result. Results preserve
// request order; a failed item never fails its siblings.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	Served  int         `json:"served"`
	Failed  int         `json:"failed"`
}

// readBatch reads the {"recipes": [...]} envelope of /annotate/batch
// and /ingest/batch under a body cap of MaxBody per allowed recipe. On
// failure it has answered (413 over a cap, 400 otherwise) and returns
// nil.
func (s *Server) readBatch(w http.ResponseWriter, r *http.Request) []*recipe.Recipe {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyBufPool.Put(buf)
	limit := s.opts.MaxBody * int64(s.opts.MaxBatch)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("batch body over %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return nil
		}
		http.Error(w, "reading batch body: "+err.Error(), http.StatusBadRequest)
		return nil
	}
	var req batchRequest
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad batch JSON: "+err.Error(), http.StatusBadRequest)
		return nil
	}
	if len(req.Recipes) == 0 {
		http.Error(w, "batch has no recipes", http.StatusBadRequest)
		return nil
	}
	if len(req.Recipes) > s.opts.MaxBatch {
		http.Error(w, fmt.Sprintf("batch of %d recipes over the %d limit", len(req.Recipes), s.opts.MaxBatch),
			http.StatusRequestEntityTooLarge)
		return nil
	}
	return req.Recipes
}

// handleAnnotateBatch folds a batch of recipes in parallel on the
// generation's annotator. With the cache enabled, a pre-pass resolves
// and hashes every recipe first: cached items are answered immediately
// without a gate slot, identical recipes within the batch fold in
// once, and only the remaining misses are folded in. Admission for
// the misses takes one gate slot the way a single request would (shed
// with 429 when saturated), then claims opportunistic extra slots —
// up to the gate capacity or the miss count, whichever is smaller — so
// spare capacity shortens the batch without starving single-recipe
// traffic. Items fail individually: a recipe the model cannot cover
// reports its own error and status at its index while the rest of the
// batch completes. When the request context ends mid-batch the
// remaining items are shed with the context's status instead of
// burning Gibbs sweeps on them.
func (s *Server) handleAnnotateBatch(w http.ResponseWriter, r *http.Request) {
	st := s.serving()
	if st == nil {
		s.unavailable(w, "model not ready")
		return
	}
	ctx := r.Context()
	recipes := s.readBatch(w, r)
	if recipes == nil {
		return
	}
	results := make([]BatchItem, len(recipes))

	// Pre-pass: answer null items, and with the cache answer hits,
	// collapse duplicates within the batch onto one fold-in, and leave
	// only genuine misses for the workers.
	var keys []cacheKey
	pending := make([]int, 0, len(recipes))
	aliases := map[int]int{} // duplicate index → pending index that folds in for it
	var firstMiss map[cacheKey]int
	if s.cache != nil {
		keys = make([]cacheKey, len(recipes))
		firstMiss = map[cacheKey]int{}
	}
	for i, rec := range recipes {
		if rec == nil {
			results[i] = BatchItem{Index: i, Error: "null recipe", Status: http.StatusBadRequest}
			continue
		}
		if s.cache == nil {
			pending = append(pending, i)
			continue
		}
		if err := rec.Resolve(); err != nil {
			results[i] = s.batchFailure(i, fmt.Errorf("annotate: %w: %w", annotate.ErrRecipe, err))
			continue
		}
		keys[i] = cacheKey{gen: st.gen, hash: hashRecipe(rec)}
		if card, ok := s.cache.get(keys[i]); ok {
			s.mServed.Inc()
			results[i] = BatchItem{Index: i, Card: card}
			continue
		}
		if prev, dup := firstMiss[keys[i]]; dup {
			aliases[i] = prev
			continue
		}
		firstMiss[keys[i]] = i
		pending = append(pending, i)
	}

	if len(pending) > 0 {
		// One slot is admitted under the normal shed policy; extras are
		// taken only if free right now.
		if err := s.admit(ctx); err != nil {
			s.writeAnnotateError(w, r, err)
			return
		}
		workers := 1
		for workers < s.opts.Pool && workers < len(pending) && s.gate.TryAcquire() {
			workers++
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer s.gate.Release()
				for {
					n := int(next.Add(1)) - 1
					if n >= len(pending) {
						return
					}
					i := pending[n]
					results[i] = s.annotateBatchItem(ctx, st, i, recipes[i])
					if s.cache != nil && results[i].Card != nil {
						s.cache.put(keys[i], results[i].Card)
					}
				}
			}()
		}
		wg.Wait()
	}

	// Duplicates share their twin's outcome — same card pointer, same
	// error, their own index.
	for i, src := range aliases {
		results[i] = results[src]
		results[i].Index = i
		if results[i].Card != nil {
			s.mServed.Inc()
		}
	}
	s.mBatches.Inc()

	resp := BatchResponse{Results: results}
	for i := range results {
		if results[i].Card != nil {
			resp.Served++
		} else {
			resp.Failed++
		}
	}
	out := bodyBufPool.Get().(*bytes.Buffer)
	out.Reset()
	defer bodyBufPool.Put(out)
	enc := json.NewEncoder(out)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		s.logf("serve: /annotate/batch: response encode: %v", err)
		http.Error(w, "internal encoding failure", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(out.Len()))
	if _, err := w.Write(out.Bytes()); err != nil {
		s.logf("serve: /annotate/batch: response write: %v", err)
	}
}

// annotateBatchItem runs one batch item through foldIn. A panic is
// contained to the item (the worker goroutine is outside the Recover
// middleware).
func (s *Server) annotateBatchItem(ctx context.Context, st *state, i int, rec *recipe.Recipe) (item BatchItem) {
	defer func() {
		if v := recover(); v != nil {
			s.mPanics.Inc()
			s.logf("serve: /annotate/batch item %d: panic: %v", i, v)
			item = BatchItem{Index: i, Error: "internal annotation failure", Status: http.StatusInternalServerError}
		}
	}()
	// A dead context sheds the rest of the batch before any sweeps run.
	if err := ctx.Err(); err != nil {
		return s.batchFailure(i, err)
	}
	card, err := s.foldIn(ctx, st, rec)
	if err != nil {
		return s.batchFailure(i, err)
	}
	s.mServed.Inc()
	return BatchItem{Index: i, Card: card}
}

// batchFailure records annotateStatus in the item at index i instead
// of in the response status.
func (s *Server) batchFailure(i int, err error) BatchItem {
	code, msg := s.annotateStatus(err)
	if code == http.StatusInternalServerError {
		s.logf("serve: /annotate/batch item %d: internal: %v", i, err)
	}
	return BatchItem{Index: i, Error: msg, Status: code}
}
