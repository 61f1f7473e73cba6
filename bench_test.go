// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations over the design choices called out in
// DESIGN.md. Custom metrics (purity, NMI, Spearman, …) are attached to
// the benchmark output via b.ReportMetric, so `go test -bench=.`
// doubles as the experiment harness; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/ingest"
	"repro/internal/lexicon"
	"repro/internal/linkage"
	"repro/internal/pipeline"
	"repro/internal/recipe"
	"repro/internal/report"
	"repro/internal/rheology"
	"repro/internal/rules"
	"repro/internal/sensory"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/textseg"
	"repro/internal/word2vec"
)

// fixture is the shared full-scale fitted pipeline used by the
// table/figure benches so the expensive fit runs once.
var (
	fixtureOnce sync.Once
	fixtureOut  *pipeline.Output
	fixtureErr  error
)

func fixture(b *testing.B) *pipeline.Output {
	b.Helper()
	fixtureOnce.Do(func() {
		fixtureOut, fixtureErr = pipeline.Run(pipeline.DefaultOptions())
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixtureOut
}

func truthOf(out *pipeline.Output) []int {
	truth := make([]int, len(out.Docs))
	for i, d := range out.Docs {
		truth[i] = d.Truth
	}
	return truth
}

func recovery(b *testing.B, out *pipeline.Output) *eval.Contingency {
	b.Helper()
	c, err := eval.NewContingency(out.Model.Assign(), truthOf(out))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTableI regenerates Table I: the calibrated simulator's
// predictions for all thirteen empirical settings. The maxRelErr
// metric is the worst relative error across rows and attributes
// (absolute error for attributes measured as 0).
func BenchmarkTableI(b *testing.B) {
	worst := 0.0
	for i := 0; i < b.N; i++ {
		worst = 0.0
		for _, m := range rheology.TableI {
			p := rheology.PredictMeasurement(m)
			for _, pair := range [][2]float64{
				{p.Hardness, m.Attr.Hardness},
				{p.Cohesiveness, m.Attr.Cohesiveness},
				{p.Adhesiveness, m.Attr.Adhesiveness},
			} {
				err := pair[0] - pair[1]
				if err < 0 {
					err = -err
				}
				if pair[1] > 0 {
					err /= pair[1]
				}
				if err > worst {
					worst = err
				}
			}
		}
	}
	b.ReportMetric(worst, "maxRelErr")
}

// BenchmarkFigure2 regenerates Figure 2: TPA curve synthesis and
// attribute re-extraction for Table I data 4.
func BenchmarkFigure2(b *testing.B) {
	attr := rheology.TableI[3].Attr
	var recovered rheology.Attributes
	for i := 0; i < b.N; i++ {
		got, err := rheology.Simulate(attr).Extract()
		if err != nil {
			b.Fatal(err)
		}
		recovered = got
	}
	b.ReportMetric(recovered.Hardness, "F1_RU")
	b.ReportMetric(recovered.Cohesiveness, "c/a")
	b.ReportMetric(recovered.Adhesiveness, "negArea_RU")
}

// BenchmarkTableIIa regenerates Table II(a): the full pipeline (corpus,
// word2vec filter, dataset filters, joint topic model) plus the KL
// assignment of the Table I rows. Metrics report ground-truth recovery
// and the Texture Profile hardness consistency.
func BenchmarkTableIIa(b *testing.B) {
	var c *eval.Contingency
	var spearman float64
	var ci eval.CI
	for i := 0; i < b.N; i++ {
		out, err := pipeline.Run(pipeline.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		_, assignments, err := report.BuildTableIIa(out, linkage.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		c = recovery(b, out)
		val := linkage.Validate(out.Model, out.Dict, assignments)
		spearman = val.Spearman[lexicon.Hardness]
		ci, err = eval.BootstrapClusterMetric(out.Model.Assign(), truthOf(out),
			func(ct *eval.Contingency) float64 { return ct.Purity() }, 200, 0.95, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(c.Purity(), "purity")
	b.ReportMetric(ci.Lo, "purityCI95lo")
	b.ReportMetric(ci.Hi, "purityCI95hi")
	b.ReportMetric(c.NMI(), "NMI")
	b.ReportMetric(spearman, "hardSpearman")
}

// BenchmarkTableIIb regenerates Table II(b): assigning Bavarois and
// Milk jelly to topics on the shared fitted model. sameTopic is 1 when
// both dishes land in one topic (as in the paper) and that topic also
// hosts Table I data 3.
func BenchmarkTableIIb(b *testing.B) {
	out := fixture(b)
	same := 0.0
	for i := 0; i < b.N; i++ {
		dishes := []rheology.Measurement{rheology.Bavarois, rheology.MilkJelly, rheology.PureGelatin25}
		as, err := linkage.AssignMeasurements(out.Model, dishes, linkage.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		same = 0
		if as[0].Topic == as[1].Topic && as[1].Topic == as[2].Topic {
			same = 1
		}
	}
	b.ReportMetric(same, "sameTopic")
}

// BenchmarkFigure3 regenerates Figure 3 for both dishes on the shared
// fitted model. Metrics: the near-dish hard fraction for Milk jelly
// and the near-dish elastic-fraction gap between the dishes (the
// paper's Bavarois-specific elasticity signal).
func BenchmarkFigure3(b *testing.B) {
	out := fixture(b)
	cfg := linkage.DefaultConfig()
	var nearHard, elasticGap float64
	for i := 0; i < b.N; i++ {
		cs, err := report.BuildCaseStudy(out, cfg, 5)
		if err != nil {
			b.Fatal(err)
		}
		nearHard = cs.Figure3["Milk jelly"].Bins[0].HardFraction()
		elasticGap = cs.Figure3["Bavarois"].Bins[0].ElasticFraction() -
			cs.Figure3["Milk jelly"].Bins[0].ElasticFraction()
	}
	b.ReportMetric(nearHard, "nearHardFrac")
	b.ReportMetric(elasticGap, "elasticGap")
}

// BenchmarkFigure4 regenerates Figure 4 for both dishes. Metrics: how
// far right of the topic star the near-dish quartile sits on the
// hardness axis for each dish, and the cohesiveness gap between the
// dishes' near quartiles.
func BenchmarkFigure4(b *testing.B) {
	out := fixture(b)
	cfg := linkage.DefaultConfig()
	var bavRight, milkRight, cohGap float64
	for i := 0; i < b.N; i++ {
		cs, err := report.BuildCaseStudy(out, cfg, 5)
		if err != nil {
			b.Fatal(err)
		}
		bav, milk := cs.Figure4["Bavarois"], cs.Figure4["Milk jelly"]
		bh, bc := bav.NearMeanKL(0.25)
		mh, mc := milk.NearMeanKL(0.25)
		bavRight = bh - bav.StarX
		milkRight = mh - milk.StarX
		cohGap = bc - mc
	}
	b.ReportMetric(bavRight, "bavHardVsStar")
	b.ReportMetric(milkRight, "milkHardVsStar")
	b.ReportMetric(cohGap, "bavMilkCohGap")
}

// ablationOptions is the reduced-size configuration shared by the
// ablation benches.
func ablationOptions() pipeline.Options {
	opts := pipeline.DefaultOptions()
	opts.Corpus.Scale = 0.3
	opts.Model.Iterations = 150
	return opts
}

// BenchmarkAblationCollapsed compares the explicit parameter sampler
// (the paper's equation (4)) against the collapsed Student-t sampler.
func BenchmarkAblationCollapsed(b *testing.B) {
	for _, mode := range []struct {
		name      string
		collapsed bool
	}{{"explicit", false}, {"collapsed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var c *eval.Contingency
			for i := 0; i < b.N; i++ {
				opts := ablationOptions()
				opts.Model.Collapsed = mode.collapsed
				out, err := pipeline.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				c = recovery(b, out)
			}
			b.ReportMetric(c.NMI(), "NMI")
			b.ReportMetric(c.Purity(), "purity")
		})
	}
}

// BenchmarkAblationBaselines compares the joint model against
// words-only LDA and a concentrations-only GMM on the same dataset.
func BenchmarkAblationBaselines(b *testing.B) {
	opts := ablationOptions()
	out, err := pipeline.Run(opts)
	if err != nil {
		b.Fatal(err)
	}
	truth := truthOf(out)
	words := make([][]int, len(out.Docs))
	gel := make([][]float64, len(out.Docs))
	for i, d := range out.Docs {
		words[i] = d.TermIDs
		gel[i] = d.Gel
	}

	b.Run("joint", func(b *testing.B) {
		var c *eval.Contingency
		for i := 0; i < b.N; i++ {
			c = recovery(b, out)
		}
		b.ReportMetric(c.NMI(), "NMI")
	})
	b.Run("lda", func(b *testing.B) {
		var nmi float64
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultLDAConfig()
			cfg.Iterations = 150
			res, err := core.FitLDA(words, out.Dict.Len(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			c, err := eval.NewContingency(res.Assign(), truth)
			if err != nil {
				b.Fatal(err)
			}
			nmi = c.NMI()
		}
		b.ReportMetric(nmi, "NMI")
	})
	b.Run("gmm", func(b *testing.B) {
		var nmi float64
		for i := 0; i < b.N; i++ {
			res, err := core.FitGMM(gel, core.GMMConfig{K: 10, Alpha: 1, Iterations: 100, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			c, err := eval.NewContingency(res.Y, truth)
			if err != nil {
				b.Fatal(err)
			}
			nmi = c.NMI()
		}
		b.ReportMetric(nmi, "NMI")
	})
}

// BenchmarkAblationFilter measures the word2vec relatedness filter's
// effect: fraction of mined term tokens that are non-gel noise, with
// the filter off and on, at a high confound rate.
func BenchmarkAblationFilter(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var noise float64
			for i := 0; i < b.N; i++ {
				opts := pipeline.DefaultOptions()
				opts.Corpus.ConfoundRate = 0.3
				opts.Model.Iterations = 50
				opts.UseW2VFilter = mode.on
				out, err := pipeline.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				nonGel, total := 0, 0
				for _, d := range out.Docs {
					for _, id := range d.TermIDs {
						total++
						if !out.Dict.Term(id).GelRelated {
							nonGel++
						}
					}
				}
				noise = float64(nonGel) / float64(total)
			}
			b.ReportMetric(noise, "noiseTokenFrac")
		})
	}
}

// BenchmarkAblationLogTransform compares the paper's −log(x)
// information-quantity features against raw concentration ratios.
func BenchmarkAblationLogTransform(b *testing.B) {
	opts := ablationOptions()
	out, err := pipeline.Run(opts) // provides docs; refit below
	if err != nil {
		b.Fatal(err)
	}
	truth := truthOf(out)
	fit := func(b *testing.B, transform func([]float64) []float64) float64 {
		data := &core.Data{V: out.Dict.Len()}
		for _, d := range out.Docs {
			data.Words = append(data.Words, d.TermIDs)
			data.Gel = append(data.Gel, transform(d.Gel))
			data.Emu = append(data.Emu, transform(d.Emulsion))
		}
		res, err := core.Fit(data, opts.Model)
		if err != nil {
			b.Fatal(err)
		}
		c, err := eval.NewContingency(res.Assign(), truth)
		if err != nil {
			b.Fatal(err)
		}
		return c.NMI()
	}
	b.Run("neglog", func(b *testing.B) {
		var nmi float64
		for i := 0; i < b.N; i++ {
			nmi = fit(b, func(f []float64) []float64 { return f })
		}
		b.ReportMetric(nmi, "NMI")
	})
	b.Run("raw", func(b *testing.B) {
		var nmi float64
		for i := 0; i < b.N; i++ {
			nmi = fit(b, recipe.ConcentrationVector)
		}
		b.ReportMetric(nmi, "NMI")
	})
}

// BenchmarkAblationEpsilon sweeps the ε floor applied to absent
// ingredients before the −log transform.
func BenchmarkAblationEpsilon(b *testing.B) {
	opts := ablationOptions()
	out, err := pipeline.Run(opts)
	if err != nil {
		b.Fatal(err)
	}
	truth := truthOf(out)
	for _, tc := range []struct {
		name string
		eps  float64
	}{{"1e-2", 1e-2}, {"1e-4", 1e-4}, {"1e-6", 1e-6}} {
		b.Run(tc.name, func(b *testing.B) {
			var nmi float64
			for i := 0; i < b.N; i++ {
				data := &core.Data{V: out.Dict.Len()}
				refloor := func(f []float64) []float64 {
					o := make([]float64, len(f))
					for j, v := range f {
						o[j] = recipe.InfoQuantityEps(recipe.Concentration(v), tc.eps)
					}
					return o
				}
				for _, d := range out.Docs {
					data.Words = append(data.Words, d.TermIDs)
					data.Gel = append(data.Gel, refloor(d.Gel))
					data.Emu = append(data.Emu, refloor(d.Emulsion))
				}
				res, err := core.Fit(data, opts.Model)
				if err != nil {
					b.Fatal(err)
				}
				c, err := eval.NewContingency(res.Assign(), truth)
				if err != nil {
					b.Fatal(err)
				}
				nmi = c.NMI()
			}
			b.ReportMetric(nmi, "NMI")
		})
	}
}

// BenchmarkAblationEmulsionWeight sweeps the emulsion likelihood
// tempering λ (1.0 is the paper's exact model).
func BenchmarkAblationEmulsionWeight(b *testing.B) {
	for _, tc := range []struct {
		name   string
		weight float64
	}{{"1.0", 1.0}, {"0.5", 0.5}, {"0.25", 0.25}, {"gel-only", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			var c *eval.Contingency
			for i := 0; i < b.N; i++ {
				opts := ablationOptions()
				if tc.weight == 0 {
					opts.Model.UseEmulsion = false
				} else {
					opts.Model.EmulsionWeight = tc.weight
				}
				out, err := pipeline.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				c = recovery(b, out)
			}
			b.ReportMetric(c.NMI(), "NMI")
		})
	}
}

// BenchmarkGibbsSweep measures the cost of one Gibbs sweep over the
// full-scale dataset.
func BenchmarkGibbsSweep(b *testing.B) {
	out := fixture(b)
	data := &core.Data{V: out.Dict.Len()}
	for _, d := range out.Docs {
		data.Words = append(data.Words, d.TermIDs)
		data.Gel = append(data.Gel, d.Gel)
		data.Emu = append(data.Emu, d.Emulsion)
	}
	cfg := pipeline.DefaultOptions().Model
	s, err := core.NewSampler(data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Sweep(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(out.Docs)), "docs")
	b.ReportMetric(float64(b.N*len(out.Docs))/b.Elapsed().Seconds(), "docs/sec")
}

// BenchmarkWord2Vec measures skip-gram training on the corpus text.
func BenchmarkWord2Vec(b *testing.B) {
	recipes, err := corpus.Generate(corpus.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	tok := lexicon.Default().Tokenizer()
	var sentences [][]string
	for _, r := range recipes {
		if s := textseg.Surfaces(tok.Tokenize(r.Description)); len(s) > 1 {
			sentences = append(sentences, s)
		}
	}
	cfg := word2vec.DefaultConfig()
	cfg.Epochs = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := word2vec.Train(sentences, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenizer measures dictionary longest-match segmentation
// throughput over recipe descriptions.
func BenchmarkTokenizer(b *testing.B) {
	recipes, err := corpus.Generate(corpus.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	tok := lexicon.Default().Tokenizer()
	var bytes int64
	for _, r := range recipes {
		bytes += int64(len(r.Description))
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range recipes {
			tok.Tokenize(r.Description)
		}
	}
}

// BenchmarkRheologyPredict measures the texture predictor.
func BenchmarkRheologyPredict(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range rheology.TableI {
			rheology.PredictMeasurement(m)
		}
	}
}

// BenchmarkModelSelectionK sweeps the topic count with held-out word
// perplexity as the criterion (the paper fixes K=10 without comment;
// the sweep justifies it).
func BenchmarkModelSelectionK(b *testing.B) {
	opts := ablationOptions()
	out, err := pipeline.Run(opts)
	if err != nil {
		b.Fatal(err)
	}
	full := &core.Data{V: out.Dict.Len()}
	for _, d := range out.Docs {
		full.Words = append(full.Words, d.TermIDs)
		full.Gel = append(full.Gel, d.Gel)
		full.Emu = append(full.Emu, d.Emulsion)
	}
	train, test, err := core.SplitData(full, 0.2, 11)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{5, 10, 15, 20} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var ho core.HeldOut
			for i := 0; i < b.N; i++ {
				cfg := opts.Model
				cfg.K = k
				res, err := core.Fit(train, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ho, err = res.Evaluate(test, 50, 3)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ho.Perplexity, "perplexity")
			b.ReportMetric(ho.ConcLogLik, "concLogLik")
		})
	}
}

// BenchmarkFoldInPlacement measures fold-in inference on held-out
// recipes: the fraction placed into the cluster holding the majority
// of their ground-truth population.
func BenchmarkFoldInPlacement(b *testing.B) {
	out := fixture(b)
	// Majority cluster per truth label.
	assign := out.Model.Assign()
	counts := map[[2]int]int{}
	for i, d := range out.Docs {
		counts[[2]int{d.Truth, assign[i]}]++
	}
	majority := map[int]int{}
	best := map[int]int{}
	for key, n := range counts {
		if n > best[key[0]] {
			best[key[0]] = n
			majority[key[0]] = key[1]
		}
	}
	// Freshly generated recipes, unseen by the fit.
	cfg := corpus.DefaultConfig()
	cfg.Seed = 999
	cfg.Scale = 0.05
	fresh, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dict := lexicon.Default()
	acc := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		correct, total := 0, 0
		for j, r := range fresh {
			theta, err := out.Model.FoldIn(dict.ExtractTermIDs(r.Description),
				r.GelFeatures(), r.EmulsionFeatures(), 60, uint64(j))
			if err != nil {
				b.Fatal(err)
			}
			total++
			if stats.ArgMax(theta) == majority[r.Truth] {
				correct++
			}
		}
		acc = float64(correct) / float64(total)
	}
	b.ReportMetric(acc, "placementAcc")
	b.ReportMetric(float64(len(fresh)), "recipes")
	b.ReportMetric(float64(b.N*len(fresh))/b.Elapsed().Seconds(), "recipes/sec")
}

// BenchmarkFoldInSteadyState isolates one warm fold-in chain on the
// cached kernel — the per-recipe serving kernel without HTTP, JSON or
// tokenization. allocs/op is the headline: after the kernel is built,
// a chain must run entirely out of pooled scratch.
func BenchmarkFoldInSteadyState(b *testing.B) {
	out := fixture(b)
	dict := lexicon.Default()
	cfg := corpus.DefaultConfig()
	cfg.Seed = 999
	cfg.Scale = 0.05
	fresh, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := fresh[0]
	words := dict.ExtractTermIDs(r.Description)
	gel, emu := r.GelFeatures(), r.EmulsionFeatures()
	kn, err := out.Model.BuildKernel()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	theta := make([]float64, kn.K())
	if err := kn.FoldInTo(ctx, theta, words, gel, emu, 60, 1); err != nil {
		b.Fatal(err) // warm the scratch pool before measuring
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kn.FoldInTo(ctx, theta, words, gel, emu, 60, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEnv is the reusable request/response harness of the serve-path
// benches: the request object, body reader, and response sink are
// built once per worker and recycled, so ns/op measures the server's
// cost — middleware, decode, cache or fold-in, encode — not the test
// client's per-request allocations. Both the fold-in and the cache-hit
// bench go through it, keeping their ns/op comparable.
type benchEnv struct {
	h    http.Handler
	req  *http.Request
	rd   *bytes.Reader
	body []byte
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func newBenchEnv(h http.Handler, path string, body []byte) *benchEnv {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", path, rd)
	req.Body = io.NopCloser(rd)
	return &benchEnv{h: h, req: req, rd: rd, body: body, hdr: make(http.Header, 8)}
}

func (e *benchEnv) Header() http.Header { return e.hdr }
func (e *benchEnv) WriteHeader(code int) {
	e.code = code
}
func (e *benchEnv) Write(p []byte) (int, error) {
	e.buf.Write(p)
	return len(p), nil
}

// do serves one request and returns the status code.
func (e *benchEnv) do() int {
	e.rd.Reset(e.body)
	clear(e.hdr)
	e.code = http.StatusOK
	e.buf.Reset()
	e.h.ServeHTTP(e, e.req)
	return e.code
}

// BenchmarkServeAnnotate measures the pooled HTTP serve path end to
// end — JSON decode, admission gate, annotator checkout, fold-in
// Gibbs chain, response encode — with the benchmark's parallelism
// driving all pool slots. The shed metric counts requests lost to
// admission; with the roomy wait budget here it should stay 0, so a
// regression in pool turnover shows up in the metrics, not just the
// latency.
func BenchmarkServeAnnotate(b *testing.B) {
	out := fixture(b)
	opts := serve.DefaultOptions()
	opts.AdmitWait = time.Minute
	opts.RequestTimeout = time.Minute
	srv, err := serve.NewWithOptions(out, opts)
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	body := []byte(`{
		"id": "bench-1",
		"title": "ゼリー",
		"description": "ぷるぷるです",
		"ingredients": [
			{"name": "ゼラチン", "amount": "5g"},
			{"name": "水", "amount": "400ml"}
		]
	}`)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		env := newBenchEnv(h, "/annotate", body)
		for pb.Next() {
			if code := env.do(); code != http.StatusOK {
				b.Fatalf("status %d: %s", code, env.buf.String())
			}
		}
	})
	st := srv.Stats()
	b.ReportMetric(float64(st.Served), "served")
	b.ReportMetric(float64(st.Shed), "shed")
}

// BenchmarkServeAnnotateHot measures the request-cache hit path: one
// warm-up request folds in and fills the cache, then every measured
// request is served straight from memory — no pool slot, no Gibbs
// sweeps. Compare its ns/op against BenchmarkServeAnnotate (the
// fold-in path) for the hot-key speedup; the hits/misses metrics prove
// the measured loop never left the cache.
func BenchmarkServeAnnotateHot(b *testing.B) {
	out := fixture(b)
	opts := serve.DefaultOptions()
	opts.AdmitWait = time.Minute
	opts.RequestTimeout = time.Minute
	opts.Cache = true
	srv, err := serve.NewWithOptions(out, opts)
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	body := []byte(`{
		"id": "bench-hot",
		"title": "ゼリー",
		"description": "ぷるぷるです",
		"ingredients": [
			{"name": "ゼラチン", "amount": "5g"},
			{"name": "水", "amount": "400ml"}
		]
	}`)
	warm := newBenchEnv(h, "/annotate", body)
	if code := warm.do(); code != http.StatusOK {
		b.Fatalf("warm-up status %d: %s", code, warm.buf.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		env := newBenchEnv(h, "/annotate", body)
		for pb.Next() {
			if code := env.do(); code != http.StatusOK {
				b.Fatalf("status %d: %s", code, env.buf.String())
			}
		}
	})
	b.StopTimer()
	st := srv.Stats()
	b.ReportMetric(float64(st.Cache.Hits), "hits")
	b.ReportMetric(float64(st.Cache.Misses), "misses")
}

// BenchmarkServeAnnotateDedup measures single-flight collapse: each
// iteration posts 16 concurrent identical requests for a key never
// seen before, so exactly one fold-in should feed all sixteen. ns/op
// is the wall time of the whole 16-wide wave; foldins/op is the proof
// of collapse (1.0 means perfect dedup).
func BenchmarkServeAnnotateDedup(b *testing.B) {
	out := fixture(b)
	opts := serve.DefaultOptions()
	opts.AdmitWait = time.Minute
	opts.RequestTimeout = time.Minute
	opts.Cache = true
	srv, err := serve.NewWithOptions(out, opts)
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	const fan = 16
	var failed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := []byte(fmt.Sprintf(`{
			"id": "bench-dedup-%d",
			"title": "ゼリー",
			"description": "ぷるぷるです",
			"ingredients": [
				{"name": "ゼラチン", "amount": "5g"},
				{"name": "水", "amount": "400ml"}
			]
		}`, i))
		var wg sync.WaitGroup
		for j := 0; j < fan; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := httptest.NewRequest("POST", "/annotate", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					failed.Add(1)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	if n := failed.Load(); n > 0 {
		b.Fatalf("%d of %d deduped requests failed", n, b.N*fan)
	}
	foldins := srv.Metrics().Histogram("annotate_foldin_seconds", "", nil, nil).Count()
	b.ReportMetric(float64(foldins)/float64(b.N), "foldins/op")
	b.ReportMetric(float64(srv.Stats().Cache.Waiters), "waiters")
}

// BenchmarkServeAnnotateBatch measures POST /annotate/batch at
// several batch sizes. The per-recipe metric (ns/recipe) is the one
// to watch: the batch fans out across the annotator pool and shares
// one HTTP/JSON envelope, so it must come in well under the
// single-request ns/op of BenchmarkServeAnnotate.
func BenchmarkServeAnnotateBatch(b *testing.B) {
	out := fixture(b)
	recipeJSON := func(id int) string {
		return fmt.Sprintf(`{
			"id": "bench-%d",
			"title": "ゼリー",
			"description": "ぷるぷるです",
			"ingredients": [
				{"name": "ゼラチン", "amount": "5g"},
				{"name": "水", "amount": "400ml"}
			]
		}`, id)
	}
	for _, size := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			opts := serve.DefaultOptions()
			opts.AdmitWait = time.Minute
			opts.RequestTimeout = time.Minute
			opts.MaxBatch = size
			srv, err := serve.NewWithOptions(out, opts)
			if err != nil {
				b.Fatal(err)
			}
			h := srv.Handler()
			var sb bytes.Buffer
			sb.WriteString(`{"recipes":[`)
			for i := 0; i < size; i++ {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(recipeJSON(i))
			}
			sb.WriteString(`]}`)
			body := sb.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/annotate/batch", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
			b.StopTimer()
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*size)*1e9, "ns/recipe")
			b.ReportMetric(float64(b.N*size)/b.Elapsed().Seconds(), "recipes/sec")
		})
	}
}

// ingestBody renders the i-th unique ingest recipe with a fixed-width
// id, so the recycled benchEnv request's ContentLength stays correct
// while every iteration still hits a never-seen canonical hash.
func ingestBody(prefix string, i int) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "%s-%08d",
		"title": "ゼリー",
		"description": "ぷるぷるです",
		"ingredients": [
			{"name": "ゼラチン", "amount": "5g"},
			{"name": "水", "amount": "400ml"}
		]
	}`, prefix, i))
}

// BenchmarkIngestAck measures the durable ingest path end to end —
// JSON decode, canonical hashing, WAL append, fsync, 202 encode. Every
// iteration posts a never-before-seen recipe, so ns/op is the
// fsync-acked write cost a client pays per accepted record;
// bytes/record is the WAL amplification (frame + digest + JSON
// envelope over the raw recipe).
func BenchmarkIngestAck(b *testing.B) {
	out := fixture(b)
	mgr, err := ingest.OpenManager(ingest.ManagerOptions{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	opts := serve.DefaultOptions()
	opts.AdmitWait = time.Minute
	opts.RequestTimeout = time.Minute
	opts.Ingest = mgr
	srv, err := serve.NewWithOptions(out, opts)
	if err != nil {
		b.Fatal(err)
	}
	env := newBenchEnv(srv.Handler(), "/ingest", ingestBody("bench-ingest", 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.body = ingestBody("bench-ingest", i+1)
		if code := env.do(); code != http.StatusAccepted {
			b.Fatalf("status %d: %s", code, env.buf.String())
		}
	}
	b.StopTimer()
	st := mgr.WAL().Stats()
	if st.Records != uint64(b.N) {
		b.Fatalf("WAL holds %d records, want %d", st.Records, b.N)
	}
	b.ReportMetric(float64(st.Bytes)/float64(st.Records), "bytes/record")
	b.ReportMetric(float64(st.Segments), "segments")
}

// BenchmarkServeAnnotateFreshRecipe measures the annotate path the way
// freshly ingested recipes exercise it: every iteration's recipe is
// new, so the request cache never hits and each request runs a full
// fold-in chain. Compare against BenchmarkServeAnnotateHot for the
// fresh-vs-cached spread; misses/op == 1 proves no iteration was
// accidentally served from memory.
func BenchmarkServeAnnotateFreshRecipe(b *testing.B) {
	out := fixture(b)
	opts := serve.DefaultOptions()
	opts.AdmitWait = time.Minute
	opts.RequestTimeout = time.Minute
	opts.Cache = true
	srv, err := serve.NewWithOptions(out, opts)
	if err != nil {
		b.Fatal(err)
	}
	env := newBenchEnv(srv.Handler(), "/annotate", ingestBody("bench-fresh", 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.body = ingestBody("bench-fresh", i+1)
		if code := env.do(); code != http.StatusOK {
			b.Fatalf("status %d: %s", code, env.buf.String())
		}
	}
	b.StopTimer()
	st := srv.Stats()
	b.ReportMetric(float64(st.Cache.Misses)/float64(b.N), "misses/op")
	b.ReportMetric(float64(st.Cache.Hits), "hits")
}

// BenchmarkConvergence reports the Geweke diagnostic and effective
// sample size of the full-scale fit's log-likelihood trace.
func BenchmarkConvergence(b *testing.B) {
	out := fixture(b)
	var z, ess float64
	for i := 0; i < b.N; i++ {
		trace := out.Model.LogLik[len(out.Model.LogLik)/3:]
		var err error
		z, err = core.GewekeZ(trace, 0.2, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		ess = core.ESS(trace)
	}
	b.ReportMetric(z, "gewekeZ")
	b.ReportMetric(ess, "ESS")
}

// BenchmarkParallelSweep measures the exact parallel kernel (workers
// ≥ 2) against the sequential kernel (workers=1). The dataset is the
// full-scale corpus replicated 4× (≈11k recipes): at the paper's own
// size one sweep is ~4 ms and goroutine fan-out overhead hides the
// speedup.
func BenchmarkParallelSweep(b *testing.B) {
	out := fixture(b)
	data := &core.Data{V: out.Dict.Len()}
	for rep := 0; rep < 4; rep++ {
		for _, d := range out.Docs {
			data.Words = append(data.Words, d.TermIDs)
			data.Gel = append(data.Gel, d.Gel)
			data.Emu = append(data.Emu, d.Emulsion)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := pipeline.DefaultOptions().Model
			cfg.Workers = workers
			cfg.Iterations = b.N
			s, err := core.NewSampler(data, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := s.Run(nil); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTextureRules mines the future-work association rules
// (recipe information + cooking steps ⇒ texture category) over the
// full corpus. Metrics: rule count and the confidence of the
// gelatin-high ⇒ hard rule, the miner's rediscovery of Table I's
// dose-response.
func BenchmarkTextureRules(b *testing.B) {
	recipes, err := corpus.Generate(corpus.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	dict := lexicon.Default()
	var mined []rules.Rule
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mined, err = rules.MineTexture(recipes, dict, rules.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(mined)), "rules")
	for _, r := range mined {
		if len(r.Antecedent) == 1 && r.Antecedent[0] == "gel:gelatin-high" && r.Consequent == "reads:hard" {
			b.ReportMetric(r.Confidence, "gelatinHighHardConf")
			break
		}
	}
}

// BenchmarkSensoryPanel reproduces the sensory-instrumental
// correlation experiment (refs [13],[14]) with the simulated panel on
// the Table I samples.
func BenchmarkSensoryPanel(b *testing.B) {
	dict := lexicon.Default()
	samples := make([]rheology.Attributes, len(rheology.TableI))
	for i, m := range rheology.TableI {
		samples[i] = m.Attr
	}
	panel := sensory.DefaultPanel()
	var hardRho, agreement float64
	for i := 0; i < b.N; i++ {
		evals, err := panel.Evaluate(dict, samples)
		if err != nil {
			b.Fatal(err)
		}
		hardRho = sensory.Correlate(evals)[0].Spearman
		agreement = sensory.WordAgreement(dict, evals, 1.5)
	}
	b.ReportMetric(hardRho, "hardSpearman")
	b.ReportMetric(agreement, "wordAgreement")
}

// BenchmarkRuleGeneralization mines texture rules on one corpus seed
// and scores them on a fresh seed — held-out precision over training
// confidence.
func BenchmarkRuleGeneralization(b *testing.B) {
	dict := lexicon.Default()
	trainRecipes, err := corpus.Generate(corpus.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	testCfg := corpus.DefaultConfig()
	testCfg.Seed = 1234
	testRecipes, err := corpus.Generate(testCfg)
	if err != nil {
		b.Fatal(err)
	}
	var testTxs []rules.Transaction
	for _, r := range testRecipes {
		testTxs = append(testTxs, rules.Featurize(r, dict))
	}
	var gen float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mined, err := rules.MineTexture(trainRecipes, dict, rules.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		scores, err := rules.Evaluate(mined, testTxs)
		if err != nil {
			b.Fatal(err)
		}
		gen = rules.MeanGeneralization(scores, 5)
	}
	b.ReportMetric(gen, "generalization")
}

// BenchmarkTopicStability fits the model with three seeds and reports
// the optimal-matching (Hungarian) topic agreement — how reproducible
// Table II(a)'s topics are across chains.
func BenchmarkTopicStability(b *testing.B) {
	opts := ablationOptions()
	var mean, minimum float64
	for i := 0; i < b.N; i++ {
		var phis [][][]float64
		for seed := uint64(1); seed <= 3; seed++ {
			o := opts
			o.Model.Seed = seed
			out, err := pipeline.Run(o)
			if err != nil {
				b.Fatal(err)
			}
			phis = append(phis, out.Model.Phi)
		}
		mean, minimum = 0, 1
		pairs := 0
		for x := 0; x < len(phis); x++ {
			for y := x + 1; y < len(phis); y++ {
				st, err := eval.TopicStability(phis[x], phis[y])
				if err != nil {
					b.Fatal(err)
				}
				mean += st.Mean
				if st.Minimum < minimum {
					minimum = st.Minimum
				}
				pairs++
			}
		}
		mean /= float64(pairs)
	}
	b.ReportMetric(mean, "meanMatchedCos")
	b.ReportMetric(minimum, "worstMatchedCos")
}

// BenchmarkAblationLearnAlpha lets Minka's fixed point learn α on the
// real corpus, reporting the learned value — the data-driven check of
// the pipeline's hand-set α=0.1.
func BenchmarkAblationLearnAlpha(b *testing.B) {
	var learned, nmi float64
	for i := 0; i < b.N; i++ {
		opts := ablationOptions()
		opts.Model.LearnAlpha = true
		opts.Model.Alpha = 0.5 // start from the naive default
		out, err := pipeline.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		learned = out.Model.Alpha
		nmi = recovery(b, out).NMI()
	}
	b.ReportMetric(learned, "learnedAlpha")
	b.ReportMetric(nmi, "NMI")
}

// BenchmarkRobustnessTermNoise injects uniformly random texture terms
// into the corpus and measures recovery degradation.
func BenchmarkRobustnessTermNoise(b *testing.B) {
	for _, noise := range []float64{0, 0.3, 0.6} {
		b.Run(fmt.Sprintf("noise=%.1f", noise), func(b *testing.B) {
			var nmi float64
			for i := 0; i < b.N; i++ {
				opts := ablationOptions()
				opts.Corpus.TermNoise = noise
				out, err := pipeline.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				nmi = recovery(b, out).NMI()
			}
			b.ReportMetric(nmi, "NMI")
		})
	}
}

// BenchmarkPipelineScale sweeps the corpus scale: wall-clock and
// recovery at 0.25×, 0.5×, 1× and 2× the paper's dataset.
func BenchmarkPipelineScale(b *testing.B) {
	for _, scale := range []float64{0.25, 0.5, 1, 2} {
		b.Run(fmt.Sprintf("scale=%.2f", scale), func(b *testing.B) {
			var nmi float64
			var docs int
			for i := 0; i < b.N; i++ {
				opts := pipeline.DefaultOptions()
				opts.Corpus.Scale = scale
				out, err := pipeline.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				nmi = recovery(b, out).NMI()
				docs = len(out.Docs)
			}
			b.ReportMetric(nmi, "NMI")
			b.ReportMetric(float64(docs), "docs")
		})
	}
}

// BenchmarkBundleSave measures durable-bundle serialization of the
// full-scale fitted pipeline — the cost of producing every deploy
// artifact and the steady-state price of persistence. bundle_bytes is
// the on-disk envelope size (container header + gzip payload).
func BenchmarkBundleSave(b *testing.B) {
	out := fixture(b)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := out.SaveBundle(&buf); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
	}
	b.ReportMetric(float64(size), "bundle_bytes")
}

// supervisionBenchData draws a small well-separated three-topic corpus
// from the model's generative process, sized so a full fit runs in
// milliseconds — the point is the supervision delta, not sampler
// throughput (BenchmarkGibbsSweep covers that).
func supervisionBenchData() (*core.Data, core.Config) {
	rng := stats.NewRNG(41, 99)
	phi := [][]float64{
		{.30, .30, .30, .03, .03, .02, .01, .005, .005},
		{.01, .005, .005, .30, .30, .30, .03, .03, .02},
		{.03, .03, .02, .01, .005, .005, .30, .30, .30},
	}
	gelMeans := [][]float64{{3, 9}, {6, 9}, {9, 4}}
	emuMeans := [][]float64{{2, 8}, {8, 2}, {5, 5}}
	data := &core.Data{V: 9}
	for d := 0; d < 120; d++ {
		k := d % 3
		words := make([]int, 2+rng.IntN(4))
		for i := range words {
			words[i] = rng.Categorical(phi[k])
		}
		data.Words = append(data.Words, words)
		data.Gel = append(data.Gel, []float64{rng.Normal(gelMeans[k][0], 0.25), rng.Normal(gelMeans[k][1], 0.25)})
		data.Emu = append(data.Emu, []float64{rng.Normal(emuMeans[k][0], 0.3), rng.Normal(emuMeans[k][1], 0.3)})
	}
	cfg := core.DefaultConfig()
	cfg.K = 3
	cfg.Iterations = 30
	cfg.BurnIn = 15
	cfg.Seed = 9
	return data, cfg
}

// BenchmarkUnsupervisedFit is the control for BenchmarkSupervisedFit:
// the pipeline's unsupervised fit path, pipeline.RunChain with a zero
// restart budget and no health thresholds.
func BenchmarkUnsupervisedFit(b *testing.B) { benchmarkRunChain(b, false) }

// BenchmarkSupervisedFit measures the same RunChain call with
// Supervise set: a restart budget and the health classifier armed
// (NaN, collapse, divergence and stall checks evaluated every sweep)
// on a chain that never diverges — the steady-state overhead a healthy
// fit pays for the safety net. Compare ns/op against
// BenchmarkUnsupervisedFit: the delta is the supervision tax.
func BenchmarkSupervisedFit(b *testing.B) { benchmarkRunChain(b, true) }

// benchmarkRunChain times pipeline.RunChain on the supervision bench
// chain. The options differ only in Supervise: without it the
// thresholds below are ignored.
func benchmarkRunChain(b *testing.B, supervise bool) {
	data, cfg := supervisionBenchData()
	opts := pipeline.Options{
		Model:        cfg,
		Supervise:    supervise,
		MaxRestarts:  3,
		MaxLLDrop:    1e9, // armed but unreachable on a healthy chain
		SweepTimeout: time.Hour,
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, incidents, err := pipeline.RunChain(ctx, data, opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(incidents) != 0 {
			b.Fatalf("healthy chain produced incidents: %+v", incidents)
		}
	}
}

// BenchmarkParallelFit measures the corpus-scale path end to end:
// streaming ingestion of a generated JSONL corpus (never materialized)
// plus one chain on 4 workers of the exact parallel kernel
// (ShardCount 4). recipes/s counts streamed records; heap_inuse_mb is
// the post-fit resident heap — with streaming ingestion it tracks the
// kept documents, not the corpus bytes, so it stays flat as
// -corpus-size grows (the peak-RSS claim EXPERIMENTS.md spot-checks at
// 1M records).
func BenchmarkParallelFit(b *testing.B) {
	opts := pipeline.DefaultOptions()
	opts.UseW2VFilter = false
	opts.Model.K = 3
	opts.Model.Iterations = 60
	opts.Model.BurnIn = 30
	opts.Model.Seed = 9
	opts.ShardCount = 4
	const n = 400
	src := pipeline.GeneratedSource(opts.Corpus, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.RunStream(src, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(n*b.N)/s, "recipes/s")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapInuse)/(1<<20), "heap_inuse_mb")
}

// BenchmarkBundleLoad measures bundle deserialization with full
// integrity verification (SHA-256 + gzip CRC + schema checks) — the
// cost of loading a bundle for reporting (texturetopics, report).
func BenchmarkBundleLoad(b *testing.B) {
	out := fixture(b)
	var buf bytes.Buffer
	if err := out.SaveBundle(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.LoadBundle(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "bundle_bytes")
}

// BenchmarkModelLoad measures what a server does with a bundle: the
// same container and SHA-256 checks as BundleLoad, then only the model
// part inflated and decoded and the fold-in kernel built — the startup
// cost of a -bundle or -store boot and of every live swap.
func BenchmarkModelLoad(b *testing.B) {
	out := fixture(b)
	var buf bytes.Buffer
	if err := out.SaveBundle(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.LoadModel(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "bundle_bytes")
}
