package serve

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

// TestSlotConcurrentAnnotateOneBody: a card is a function of the model
// generation and the recipe, never of the gate slot that served it.
// 64 identical requests at once on a four-slot server with the cache
// off each run their own fold-in, and all must return one body.
func TestSlotConcurrentAnnotateOneBody(t *testing.T) {
	opts := quietOptions()
	opts.Pool = 4
	h := newTestServer(t, opts).Handler()

	const n = 64
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postAnnotate(h, jellyJSON)
			if rec.Code != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
			}
			bodies[i] = rec.Body.String()
		}()
	}
	wg.Wait()
	distinct := map[string]int{}
	for _, b := range bodies {
		distinct[b]++
	}
	if len(distinct) != 1 {
		topics := map[int]int{}
		for b, c := range distinct {
			var card struct{ Topic int }
			if err := json.Unmarshal([]byte(b), &card); err == nil {
				topics[card.Topic] += c
			}
		}
		t.Fatalf("%d identical concurrent requests returned %d different bodies (requests per topic: %v); want 1",
			n, len(distinct), topics)
	}
}

// TestSlotBatchMatchesSingle: a batch item folds in on the same
// annotator with the same seed as a single request, so the recipe's
// card is the same whichever route and slot computed it.
func TestSlotBatchMatchesSingle(t *testing.T) {
	opts := quietOptions()
	opts.Pool = 4
	h := newTestServer(t, opts).Handler()

	single := postAnnotate(h, jellyJSON)
	if single.Code != http.StatusOK {
		t.Fatalf("single: status %d: %s", single.Code, single.Body.String())
	}
	// Four copies, so the batch runs on four workers at once.
	rec := postBatch(h, `{"recipes":[`+jellyJSON+`,`+jellyJSON+`,`+jellyJSON+`,`+jellyJSON+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
	}
	for _, item := range decodeBatch(t, rec).Results {
		if item.Card == nil {
			t.Fatalf("batch item %d failed: %d %s", item.Index, item.Status, item.Error)
		}
		body, err := encodeCard(item.Card)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != single.Body.String() {
			t.Errorf("batch item %d card differs from the single request's:\n%s\nvs\n%s", item.Index, body, single.Body)
		}
	}
}

// holdFirstFoldIn is an Injector that parks the first "annotate"
// fold-in until release is closed, so a test can land a swap in the
// middle of it. Later fold-ins pass straight through.
type holdFirstFoldIn struct {
	held    atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (h *holdFirstFoldIn) Fault(op string) resilience.Fault {
	if op == "annotate" && h.held.CompareAndSwap(false, true) {
		close(h.entered)
		<-h.release
	}
	return resilience.Fault{}
}

// TestSlotWarmFoldInAcrossSwap: the ingest warm fold-in loads one
// serving state, so a fold-in that straddles a swap caches the old
// model's card under the old generation. The first /annotate after the
// swap must miss and fold in on the new model, never answer the old
// model's card as a hit under the new generation.
func TestSlotWarmFoldInAcrossSwap(t *testing.T) {
	hold := &holdFirstFoldIn{entered: make(chan struct{}), release: make(chan struct{})}
	opts := quietOptions()
	opts.Pool = 4
	opts.Cache = true
	opts.Injector = hold
	s, _ := ingestServer(t, opts)
	h := s.Handler()

	// What each model answers for the recipe, from plain servers.
	oldCard := postAnnotate(newTestServer(t, quietOptions()).Handler(), jellyJSON).Body.String()
	plainAlt, err := NewWithOptions(cloneOf(t, altOutput(t)), quietOptions())
	if err != nil {
		t.Fatal(err)
	}
	newCard := postAnnotate(plainAlt.Handler(), jellyJSON).Body.String()
	if oldCard == newCard {
		t.Fatal("fixture and alt models give the same card; the test cannot tell them apart")
	}

	if rec := postIngest(h, "/ingest", jellyJSON); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	select {
	case <-hold.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the warm fold-in never reached the annotate injector")
	}
	if err := s.SwapOutput(cloneOf(t, altOutput(t))); err != nil {
		t.Fatal(err)
	}
	close(hold.release)
	deadline := time.Now().Add(5 * time.Second)
	for s.cache.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the warm fold-in never filled the cache")
		}
		time.Sleep(time.Millisecond)
	}

	rec := postAnnotate(h, jellyJSON)
	if rec.Code != http.StatusOK {
		t.Fatalf("annotate after swap: status %d: %s", rec.Code, rec.Body.String())
	}
	if state := rec.Header().Get("X-Annotation-Cache"); state != "miss" {
		t.Errorf("annotate after swap: cache state %q, want miss", state)
	}
	switch rec.Body.String() {
	case newCard:
	case oldCard:
		t.Fatal("the old model's card was served under the new generation")
	default:
		t.Fatalf("annotate after swap returned neither model's card:\n%s", rec.Body)
	}
}
