package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ingest"
)

// FuzzServeBodies posts arbitrary bytes to every body-taking route of
// one server with the cache and ingest on. Whatever the body, no
// handler may panic or answer 5xx, and every status — of the response
// and of each batch item — must be one the route documents.
func FuzzServeBodies(f *testing.F) {
	mgr, err := ingest.OpenManager(ingest.ManagerOptions{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { mgr.Close() })
	opts := quietOptions()
	opts.Cache = true
	opts.Ingest = mgr
	opts.Logf = f.Logf
	// Small caps so short inputs reach the 413 paths too.
	opts.MaxBody = 2048
	opts.MaxBatch = 4
	s, err := NewWithOptions(fixtureOutput(f), opts)
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	for _, seed := range []string{
		jellyJSON,
		`{"recipes":[` + jellyJSON + `,null,{"id":"x","ingredients":[{"name":"水","amount":"100ml"}]}]}`,
		`{"recipes":[]}`,
		`{"recipes":[{},{},{},{},{}]}`,
		`{"id":"x","ingredients":[{"name":"ゼラチン","amount":"たっぷり"}]}`,
		`{"id":"x","ingredients":[{"name":"ゼラチン","amount":"1e308g"},{"name":"水","amount":"0ml"}]}`,
		`{"id":"x","description":"ぷるぷる","ingredients":[{"name":"寒天","amount":"-5g"}]}`,
		`{"unknown_field":1}`,
		`null`,
		`not json`,
		``,
		strings.Repeat("ぷ", 1000),
	} {
		f.Add([]byte(seed))
	}

	documented := map[string]map[int]bool{
		"/annotate":       {200: true, 400: true, 413: true, 422: true, 429: true},
		"/annotate/batch": {200: true, 400: true, 413: true, 429: true},
		"/ingest":         {200: true, 202: true, 400: true, 413: true, 422: true},
		"/ingest/batch":   {200: true, 202: true, 400: true, 413: true},
	}
	itemStatuses := map[int]bool{200: true, 202: true, 400: true, 413: true, 422: true}

	f.Fuzz(func(t *testing.T, body []byte) {
		panics := s.Stats().Panics
		for _, path := range []string{"/annotate", "/annotate/batch", "/ingest", "/ingest/batch"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(string(body))))
			if !documented[path][rec.Code] {
				t.Fatalf("%s: undocumented status %d for body %q: %s", path, rec.Code, body, rec.Body)
			}
			if rec.Code != http.StatusOK || !strings.HasSuffix(path, "/batch") {
				continue
			}
			var resp struct {
				Results []struct {
					Status int             `json:"status"`
					Card   json.RawMessage `json:"card"`
				} `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: 200 body is not a batch response: %v", path, err)
			}
			for i, item := range resp.Results {
				if item.Card == nil && !itemStatuses[item.Status] {
					t.Fatalf("%s: item %d has status %d for body %q: %s", path, i, item.Status, body, rec.Body)
				}
			}
		}
		if got := s.Stats().Panics; got != panics {
			t.Fatalf("body %q panicked a handler", body)
		}
	})
}
