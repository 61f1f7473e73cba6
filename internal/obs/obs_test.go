package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", "requests", nil)
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Get-or-create returns the same instance.
	if reg.Counter("requests_total", "requests", nil) != c {
		t.Fatal("re-registration must return the same counter")
	}
	g := reg.Gauge("in_flight", "", nil)
	g.Set(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %g, want 2", g.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	reg.Gauge("x_total", "", nil)
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("latency_seconds", "", []float64{0.01, 0.1, 1}, nil)
	for _, v := range []float64{0.005, 0.02, 0.02, 0.5, 2.5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got < 3.04 || got > 3.05 {
		t.Fatalf("sum = %g", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total", "Requests served.", Labels{"route": "/annotate"}).Add(3)
	reg.GaugeFunc("ready", "Readiness.", nil, func() float64 { return 1 })
	reg.CounterFunc("shed_total", "", nil, func() int64 { return 7 })
	h := reg.Histogram("latency_seconds", "", []float64{0.1, 1}, Labels{"route": "/annotate"})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP served_total Requests served.",
		"# TYPE served_total counter",
		`served_total{route="/annotate"} 3`,
		"# TYPE ready gauge",
		"ready 1",
		"shed_total 7",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1",route="/annotate"} 1`,
		`latency_seconds_bucket{le="1",route="/annotate"} 2`,
		`latency_seconds_bucket{le="+Inf",route="/annotate"} 3`,
		`latency_seconds_sum{route="/annotate"} 5.55`,
		`latency_seconds_count{route="/annotate"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestConcurrentObservations(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("hits_total", "", nil)
			h := reg.Histogram("lat_seconds", "", nil, nil)
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("hits_total", "", nil).Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := reg.Histogram("lat_seconds", "", nil, nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestInstrumentRecordsRouteMetrics(t *testing.T) {
	reg := NewRegistry()
	h := Instrument(reg, "/t", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("fail") != "" {
			http.Error(w, "nope", http.StatusBadRequest)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/t", nil))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/t?fail=1", nil))

	if got := reg.Counter("http_requests_total", "", Labels{"route": "/t", "code": "2xx"}).Value(); got != 3 {
		t.Fatalf("2xx = %d, want 3", got)
	}
	if got := reg.Counter("http_requests_total", "", Labels{"route": "/t", "code": "4xx"}).Value(); got != 1 {
		t.Fatalf("4xx = %d, want 1", got)
	}
	if got := reg.Histogram("http_request_duration_seconds", "", nil, Labels{"route": "/t"}).Count(); got != 4 {
		t.Fatalf("latency observations = %d, want 4", got)
	}
}

func TestAccessLogEmitsStructuredLine(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, "json")
	h := AccessLog(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "short and stout")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/pot", nil))

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log is not one JSON line: %v\n%s", err, buf.String())
	}
	if line["method"] != "GET" || line["path"] != "/pot" || line["status"] != float64(http.StatusTeapot) {
		t.Fatalf("access line = %v", line)
	}
	if line["bytes"] != float64(len("short and stout")) {
		t.Fatalf("bytes = %v", line["bytes"])
	}
}

func TestAccessLogNilLoggerPassesThrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := AccessLog(nil, inner); got == nil {
		t.Fatal("nil logger must still return a handler")
	}
}
