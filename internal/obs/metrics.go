// Package obs is the observability layer of the serving stack: a
// dependency-free metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms) with Prometheus-text exposition,
// plus structured logging and HTTP instrumentation built on log/slog.
//
// The package deliberately implements the minimal subset of the
// Prometheus data model the stack needs — monotonic counters, gauges
// (including callback gauges for values owned elsewhere, like a gate's
// in-flight count), and cumulative histograms — so nothing outside the
// standard library is required and the hot-path cost of an observation
// is one or two atomic operations.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach dimensions to a metric series ({route="/annotate"}).
// A nil map is a series with no labels.
type Labels map[string]string

// DefBuckets are the default latency histogram bucket upper bounds in
// seconds: 1 ms to 10 s, the span between a cache-warm fold-in and a
// request that should have been shed long ago.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are a programming error and ignored.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free: one atomic add into the bucket, one CAS on the sum.
type Histogram struct {
	bounds []float64      // sorted upper bounds; implicit +Inf last
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a family.
type series struct {
	labels Labels
	sig    string // canonical {k="v",…} rendering, "" for no labels

	counter     *Counter
	counterFunc func() int64
	gauge       *Gauge
	gaugeFunc   func() float64
	hist        *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string // signature order of registration
	series map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; use NewRegistry.
// All methods are safe for concurrent use; the getters are
// get-or-create, so handlers can call them on the hot path without
// caching (though caching the returned pointer is cheaper still).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelSignature renders labels canonically: keys sorted, values
// escaped, e.g. `{code="2xx",route="/annotate"}`.
func labelSignature(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, escapeLabel(ls[k]))
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// getLocked returns the series for (name, labels), creating family
// and series as needed. A name reused with a different kind panics:
// that is a programming error no exposition format can represent.
// Callers must hold r.mu — attaching the metric payload has to happen
// under the same critical section as the lookup, or two concurrent
// get-or-creates race on it.
func (r *Registry) getLocked(name, help string, kind metricKind, ls Labels) *series {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v and %v", name, f.kind, kind))
	}
	sig := labelSignature(ls)
	s, ok := f.series[sig]
	if !ok {
		copied := Labels{}
		for k, v := range ls {
			copied[k] = v
		}
		s = &series{labels: copied, sig: sig}
		f.series[sig] = s
		f.order = append(f.order, sig)
	}
	return s
}

// Counter returns (creating if needed) the counter name{labels}.
func (r *Registry) Counter(name, help string, ls Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getLocked(name, help, kindCounter, ls)
	if s.counter == nil && s.counterFunc == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// CounterFunc registers a callback-backed counter for a monotonic
// value owned elsewhere (a gate's shed total). The callback must be
// safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, ls Labels, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getLocked(name, help, kindCounter, ls)
	s.counterFunc = fn
	s.counter = nil
}

// Gauge returns (creating if needed) the gauge name{labels}.
func (r *Registry) Gauge(name, help string, ls Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getLocked(name, help, kindGauge, ls)
	if s.gauge == nil && s.gaugeFunc == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a callback-backed gauge. The callback must be
// safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, ls Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getLocked(name, help, kindGauge, ls)
	s.gaugeFunc = fn
	s.gauge = nil
}

// Histogram returns (creating if needed) the histogram name{labels}
// with the given bucket upper bounds (DefBuckets when nil). Bounds are
// fixed at first registration; later calls reuse the existing series.
func (r *Registry) Histogram(name, help string, bounds []float64, ls Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getLocked(name, help, kindHistogram, ls)
	if s.hist == nil {
		if len(bounds) == 0 {
			bounds = DefBuckets
		}
		sorted := append([]float64(nil), bounds...)
		sort.Float64s(sorted)
		s.hist = &Histogram{bounds: sorted, counts: make([]atomic.Int64, len(sorted)+1)}
	}
	return s.hist
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	// Snapshot the family/series structure so rendering (which calls
	// user callbacks) runs outside the lock.
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	type snap struct {
		f  *family
		ss []*series
	}
	snaps := make([]snap, len(fams))
	for i, f := range fams {
		ss := make([]*series, 0, len(f.order))
		for _, sig := range f.order {
			ss = append(ss, f.series[sig])
		}
		snaps[i] = snap{f: f, ss: ss}
	}
	r.mu.Unlock()

	for _, sn := range snaps {
		f := sn.f
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range sn.ss {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case kindCounter:
		v := int64(0)
		if s.counterFunc != nil {
			v = s.counterFunc()
		} else if s.counter != nil {
			v = s.counter.Value()
		}
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.sig, v)
		return err
	case kindGauge:
		v := 0.0
		if s.gaugeFunc != nil {
			v = s.gaugeFunc()
		} else if s.gauge != nil {
			v = s.gauge.Value()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.sig, formatFloat(v))
		return err
	default:
		return writeHistogram(w, f.name, s)
	}
}

// writeHistogram renders the cumulative _bucket / _sum / _count
// triplet of one histogram series, merging the le label into the
// series' own labels.
func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.hist
	if h == nil {
		return nil
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if err := writeBucket(w, name, s.labels, formatFloat(bound), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if err := writeBucket(w, name, s.labels, "+Inf", cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.sig, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.sig, h.Count())
	return err
}

func writeBucket(w io.Writer, name string, ls Labels, le string, cum int64) error {
	with := Labels{"le": le}
	for k, v := range ls {
		with[k] = v
	}
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelSignature(with), cum)
	return err
}

// formatFloat renders floats the way Prometheus clients do: integers
// without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
