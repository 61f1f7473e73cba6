// POST /ingest and /ingest/batch: online corpus growth at the edge.
// The durability contract is the WAL's — a 2xx means the recipe's
// bytes are fsynced and will survive kill -9 — and the freshness
// contract is the cache's: an accepted recipe is opportunistically
// folded into the live model right away, so the poster can annotate
// it before any re-fit runs.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/annotate"
	"repro/internal/ingest"
	"repro/internal/recipe"
)

// IngestAck is the wire form of one accepted ingest, shared with the
// client SDK. A new recipe answers 202 Accepted; a canonical-hash
// duplicate answers 200 with the original sequence and Duplicate set.
type IngestAck struct {
	// Seq is the recipe's durable WAL sequence number.
	Seq uint64 `json:"seq"`
	// Duplicate reports the recipe was already in the log.
	Duplicate bool `json:"duplicate,omitempty"`
	// RecordsSinceFit is how many accepted records await the next
	// re-fit, this one included.
	RecordsSinceFit uint64 `json:"records_since_fit"`
}

// IngestBatchItem is one recipe's ingest outcome, index-aligned with
// the request. Status carries the HTTP status the item would have
// received as a single request (202, 200, or an error status).
type IngestBatchItem struct {
	Index     int    `json:"index"`
	Seq       uint64 `json:"seq,omitempty"`
	Duplicate bool   `json:"duplicate,omitempty"`
	Error     string `json:"error,omitempty"`
	Status    int    `json:"status"`
}

// IngestBatchResponse is the wire form of a batch ingest result.
type IngestBatchResponse struct {
	Results    []IngestBatchItem `json:"results"`
	Accepted   int               `json:"accepted"`
	Duplicates int               `json:"duplicates"`
	Failed     int               `json:"failed"`
}

// handleIngest accepts one recipe into the WAL. Unlike the annotate
// routes it does not require a fitted model — the log is the product
// here, and a server still fitting its first model must not drop
// submissions — but a draining server refuses new durability promises
// the same way it refuses new fold-ins.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavailable(w, "draining")
		return
	}
	var rec recipe.Recipe
	if !s.decodeRecipe(w, r, &rec) {
		return
	}
	ack, status, err := s.ingestOne(&rec)
	if err != nil {
		code, msg := ingestStatus(err)
		if code == http.StatusInternalServerError {
			s.logf("serve: %s %s: wal append: %v", r.Method, r.URL.Path, err)
		}
		http.Error(w, msg, code)
		return
	}
	go s.warmFoldIn(&rec)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(ack); err != nil {
		s.logf("serve: /ingest: response encode: %v", err)
	}
}

// handleIngestBatch appends a batch. Items fail individually; the
// response status is 202 when anything new was accepted, 200 when the
// batch was all duplicates and errors.
func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavailable(w, "draining")
		return
	}
	recipes := s.readBatch(w, r)
	if recipes == nil {
		return
	}
	resp := IngestBatchResponse{Results: make([]IngestBatchItem, len(recipes))}
	var warm []*recipe.Recipe
	for i, rec := range recipes {
		if rec == nil {
			resp.Results[i] = IngestBatchItem{Index: i, Error: "null recipe", Status: http.StatusBadRequest}
			resp.Failed++
			continue
		}
		ack, status, err := s.ingestOne(rec)
		if err != nil {
			code, msg := ingestStatus(err)
			if code == http.StatusInternalServerError {
				s.logf("serve: /ingest/batch item %d: wal append: %v", i, err)
			}
			resp.Results[i] = IngestBatchItem{Index: i, Error: msg, Status: code}
			resp.Failed++
			continue
		}
		resp.Results[i] = IngestBatchItem{Index: i, Seq: ack.Seq, Duplicate: ack.Duplicate, Status: status}
		if ack.Duplicate {
			resp.Duplicates++
		} else {
			resp.Accepted++
			warm = append(warm, rec)
		}
	}
	if len(warm) > 0 {
		// One background warmer for the whole batch: each recipe takes a
		// spare gate slot if there is one and is skipped otherwise —
		// freshness is opportunistic, durability is already settled.
		go func() {
			for _, rec := range warm {
				s.warmFoldIn(rec)
			}
		}()
	}
	status := http.StatusOK
	if resp.Accepted > 0 {
		status = http.StatusAccepted
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		s.logf("serve: /ingest/batch: response encode: %v", err)
	}
}

// ingestOne resolves and durably appends one recipe, returning the ack
// and the HTTP status it earns (202 new, 200 duplicate). The Append
// only returns after fsync — the ack IS the durability promise.
func (s *Server) ingestOne(rec *recipe.Recipe) (IngestAck, int, error) {
	if err := rec.Resolve(); err != nil {
		return IngestAck{}, 0, fmt.Errorf("ingest: %w: %w", annotate.ErrRecipe, err)
	}
	ack, err := s.opts.Ingest.Append(rec)
	if err != nil {
		return IngestAck{}, 0, err
	}
	status := http.StatusAccepted
	if ack.Duplicate {
		status = http.StatusOK
	}
	return IngestAck{
		Seq:             ack.Seq,
		Duplicate:       ack.Duplicate,
		RecordsSinceFit: s.opts.Ingest.RecordsSinceFit(),
	}, status, nil
}

// ingestStatus is the one status mapping of /ingest and each
// /ingest/batch item: recipe faults are the client's (422), a recipe
// too large for a WAL record is too (413 — batch items can
// individually exceed what a lone request's MaxBody cap would have
// refused), anything else means the log could not be written — a 500
// the caller logs, because acks stopped being possible.
func ingestStatus(err error) (int, string) {
	switch {
	case errors.Is(err, annotate.ErrRecipe):
		return http.StatusUnprocessableEntity, err.Error()
	case errors.Is(err, ingest.ErrTooLarge):
		return http.StatusRequestEntityTooLarge, err.Error()
	default:
		return http.StatusInternalServerError, "ingest log write failed"
	}
}

// warmFoldIn makes a freshly ingested recipe immediately annotatable:
// fold it in and seed the request cache, so the poster's next
// /annotate is a cache hit instead of a cold fold-in. The serving
// state is loaded once, so the card is cached under the generation of
// the model that computed it, even when a swap lands mid-fold-in.
// Strictly opportunistic — no model, no cache, or no free gate slot
// means it silently skips; durability was already acknowledged and the
// recipe reaches the model at the next re-fit regardless.
func (s *Server) warmFoldIn(rec *recipe.Recipe) {
	st := s.serving()
	if s.cache == nil || st == nil {
		return
	}
	if !s.gate.TryAcquire() {
		return
	}
	defer s.gate.Release()
	defer func() {
		if v := recover(); v != nil {
			s.mPanics.Inc()
			s.logf("serve: ingest warm fold-in: panic: %v", v)
		}
	}()
	ctx := context.Background()
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	card, err := s.foldIn(ctx, st, rec)
	if err != nil {
		return // best effort; the WAL already has the recipe
	}
	s.cache.put(cacheKey{gen: st.gen, hash: hashRecipe(rec)}, card)
}
