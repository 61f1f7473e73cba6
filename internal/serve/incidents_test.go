package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
)

// TestStatuszReportsFitIncidents: a model fitted under the supervisor
// carries its recovery history into /statusz, so operators can see a
// serving model survived a rollback without grepping fit logs.
func TestStatuszReportsFitIncidents(t *testing.T) {
	out := cloneOutput(t)
	out.FitIncidents = []resilience.Incident{{
		Attempt:     0,
		Sweep:       25,
		Kind:        string(core.HealthLogLikCollapse),
		Detail:      "log-likelihood collapsed",
		Action:      resilience.ActionRollback,
		ResumedFrom: 20,
		At:          time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
	}}
	s, err := NewWithOptions(out, quietOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/statusz: %d", rec.Code)
	}
	var st struct {
		LastFitIncidents []resilience.Incident `json:"last_fit_incidents"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.LastFitIncidents) != 1 {
		t.Fatalf("statusz incidents = %+v, want the rollback", st.LastFitIncidents)
	}
	inc := st.LastFitIncidents[0]
	if inc.Kind != string(core.HealthLogLikCollapse) || inc.Action != resilience.ActionRollback ||
		inc.Sweep != 25 || inc.ResumedFrom != 20 {
		t.Fatalf("statusz incident = %+v, lost fields over the wire", inc)
	}
}

// TestStatuszOmitsIncidentsWhenClean: an unsupervised (or untroubled)
// fit must not emit the key at all.
func TestStatuszOmitsIncidentsWhenClean(t *testing.T) {
	s := newTestServer(t, quietOptions())
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/statusz: %d", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "last_fit_incidents") {
		t.Fatalf("clean statusz leaked an empty incidents key: %s", rec.Body)
	}
}

// TestSwapOutputRejectsDegenerateModel: a reload source handing over a
// shape-broken model (truncated φ) must be refused at swap time — the
// kernel build fails before the pointer flip and the previous model
// keeps serving.
func TestSwapOutputRejectsDegenerateModel(t *testing.T) {
	s := newTestServer(t, quietOptions())
	h := s.Handler()

	bad := cloneOutput(t)
	bad.Model.Phi = bad.Model.Phi[:1] // fewer φ rows than K
	err := s.SwapOutput(bad)
	if err == nil {
		t.Fatal("swap accepted a model whose kernel cannot build")
	}
	if !errors.Is(err, core.ErrDegenerateModel) {
		t.Fatalf("swap error %v does not wrap core.ErrDegenerateModel", err)
	}
	if got := s.Stats().Generation; got != 1 {
		t.Fatalf("generation %d after refused swap, want 1", got)
	}
	if rec := postAnnotate(h, jellyJSON); rec.Code != http.StatusOK {
		t.Fatalf("annotate after refused swap: %d; the old model must keep serving", rec.Code)
	}
}
