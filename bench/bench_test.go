package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/recipe"
	"repro/internal/serve"
)

func TestPercentileMath(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty samples must give NaN")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// and statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if !tailSupported(1000, 0.99) || tailSupported(999, 0.99) {
		t.Error("a tail percentile needs ten samples beyond it")
	}
}

func TestConstantSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	const rate = 3000.0
	prev := dueTime(start, rate, 0)
	if !prev.Equal(start) {
		t.Fatalf("first due time %v, want the phase start", prev)
	}
	for j := 1; j <= 30000; j++ {
		at := dueTime(start, rate, j)
		if gap := at.Sub(prev); gap < 333*time.Microsecond || gap > 334*time.Microsecond {
			t.Fatalf("gap %v before op %d, want 1/%g s", gap, j, rate)
		}
		prev = at
	}
	if got := prev.Sub(start); got != 10*time.Second {
		t.Fatalf("30000 ops at %g/s end at %v, want 10s: the schedule drifts", rate, got)
	}

	// An open loop issues exactly rate × duration operations, each once.
	pool, err := makePool(101, 200)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
	}))
	defer ts.Close()
	lg := newLoadgen(newTraffic("annotate-cold", 1, pool), ts.URL, 2)
	defer lg.close()
	lg.openLoop(phaseFixed, 0, 500, 200*time.Millisecond)
	ss := lg.samples(phaseFixed, 0)
	seen := map[int64]bool{}
	for _, s := range ss {
		if seen[s.op] || s.status != http.StatusOK {
			t.Fatalf("op %d: status %d, repeated %v", s.op, s.status, seen[s.op])
		}
		seen[s.op] = true
	}
	if len(ss) != 100 || len(lg.lags) != 100 {
		t.Fatalf("%d samples and %d lags, want 100", len(ss), len(lg.lags))
	}
}

func TestZipfDeterministicPerSeed(t *testing.T) {
	pool, err := makePool(101, 300)
	if err != nil {
		t.Fatal(err)
	}
	a := newTraffic("annotate-zipf", 7, pool)
	b := newTraffic("annotate-zipf", 7, pool)
	c := newTraffic("annotate-zipf", 8, pool)
	const n = 20000
	var same, variants int
	freq := map[int64]int{}
	var ba, bb bytes.Buffer
	for i := int64(0); i < n; i++ {
		oa, ob, oc := a.op(i), b.op(i), c.op(i)
		a.body(oa, &ba)
		b.body(ob, &bb)
		if oa.keys[0] != ob.keys[0] || !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Fatalf("op %d differs between two traffics with one seed", i)
		}
		if oa.keys[0] == oc.keys[0] {
			same++
		}
		if oa.keys[0] < 0 || oa.keys[0] >= zipfKeys {
			t.Fatalf("key %d outside [0,%d)", oa.keys[0], zipfKeys)
		}
		freq[oa.keys[0]]++
		if oa.variant != nil {
			variants++
		}
	}
	if same > n/2 {
		t.Errorf("seeds 7 and 8 agree on %d of %d keys", same, n)
	}
	for k, f := range freq {
		if f > freq[0] {
			t.Errorf("key %d drawn %d times, more than rank 1 (%d)", k, f, freq[0])
		}
	}
	if share := float64(variants) / n; math.Abs(share-variantShare) > 0.02 {
		t.Errorf("variant share %.3f, want %.2f", share, variantShare)
	}
	cdf := zipfCDF(zipfKeys, 1)
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-12 {
		t.Errorf("Zipf CDF ends at %g", cdf[len(cdf)-1])
	}
}

func TestVariantsShareCanonicalHash(t *testing.T) {
	pool, err := makePool(101, 300)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTraffic("annotate-zipf", 3, pool)
	checked := 0
	for i := int64(0); checked < 200; i++ {
		o := tr.op(i)
		if o.variant == nil {
			continue
		}
		checked++
		var vb, cb bytes.Buffer
		tr.body(o, &vb)
		tr.writeRecipe(&cb, o.keys[0])
		if bytes.Equal(vb.Bytes(), cb.Bytes()) {
			t.Fatalf("op %d: variant body equals the canonical body", i)
		}
		v, c := mustResolve(t, vb.Bytes()), mustResolve(t, cb.Bytes())
		if recipe.CanonicalHash(v) != recipe.CanonicalHash(c) {
			t.Fatalf("op %d: variant and canonical body hash differently:\n%s\n%s", i, vb.Bytes(), cb.Bytes())
		}
	}
}

func mustResolve(t *testing.T, body []byte) *recipe.Recipe {
	t.Helper()
	r, err := decodeRecipe(body)
	if err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "serve.handler", Parent: -1, Start: 0, End: 100},
		{Name: "annotate.annotate", Parent: 0, Start: 100, End: 130},
		{Name: "recipe.decode", Parent: 0, Start: 130, End: 150},
		{Name: "core.foldin", Parent: 1, Start: 150, End: 160},
	}
	want := []time.Duration{50, 20, 20, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	self := selfTimes(spans)
	if got := usByName(spans, self, "serve.handler", true); got != 0.05 {
		t.Errorf("handler self = %g µs, want 0.05", got)
	}
}

func TestBenchmarkNames(t *testing.T) {
	bm, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	plain := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var names []string
	names = append(names, bm.workloadNames()...)
	for _, m := range bm.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range bm.PerLayer {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !plain.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
	}
	bm.PerLayer = append(bm.PerLayer, bm.PerLayer[0])
	if bm.validateNames() == nil {
		t.Error("a repeated name passed validation")
	}
	bm.PerLayer[len(bm.PerLayer)-1].Name = "bad name"
	if bm.validateNames() == nil {
		t.Error("a name with a space passed validation")
	}
}

// TestSmokeAnnotateCold drives about a second of annotate-cold against
// an in-process server on a scale-0.2 model and checks that every
// end-to-end metric BENCHMARK.json declares is emitted.
func TestSmokeAnnotateCold(t *testing.T) {
	bm, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	opts := pipeline.DefaultOptions()
	opts.Corpus.Scale = 0.2
	opts.Model.Iterations = 150
	out, err := pipeline.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{
		work: t.TempDir(), seed: 1, seconds: 1, nconns: runtime.NumCPU(), log: io.Discard,
		fitServing: out.SaveBundleFile,
		launch: func(args []string, _ string) (*server, time.Duration, error) {
			start := time.Now()
			o, err := pipeline.LoadBundleFile(args[1]) // -bundle path
			if err != nil {
				return nil, 0, err
			}
			sopts := serve.DefaultOptions()
			sopts.Cache = true
			sopts.Logf = func(string, ...any) {}
			srv, err := serve.NewWithOptions(o, sopts)
			if err != nil {
				return nil, 0, err
			}
			ts := httptest.NewServer(srv.Handler())
			return &server{base: ts.URL, stop: func() float64 {
				ts.Close()
				var ru syscall.Rusage
				syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
				return float64(ru.Maxrss) / 1024
			}}, time.Since(start), nil
		},
	}
	res, err := runWorkload(e, "annotate-cold")
	if err != nil {
		t.Fatal(err)
	}
	if err := bm.checkEmitted(res, false); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"p50_ms", "sat_rps", "error_rate"} {
		if _, ok := res.Reported[name]; !ok {
			t.Errorf("reported figure %s not emitted", name)
		}
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%d of %d requests failed: %v", res.Failed, res.Attempted, res.Problems)
	}
	// The scale-0.2 model sits below the paper-scale quality floors, and
	// a shared test machine may not hold the offered rate; neither is
	// what this test checks.
	t.Logf("problems: %v", res.Problems)
}
