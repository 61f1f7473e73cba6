package pipeline

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
)

var (
	paperOnce sync.Once
	paperOut  *Output
	paperErr  error
)

// paperOutput is a paper-scale fitted state, shared by the tests of
// the split between LoadModel and LoadBundle. The bundle's shape comes
// from the corpus, not the chain length; the confound rate gives it
// excluded terms.
func paperOutput(t *testing.T) *Output {
	t.Helper()
	paperOnce.Do(func() {
		opts := DefaultOptions()
		opts.Corpus.ConfoundRate = 0.3
		opts.Model.Iterations = 20
		paperOut, paperErr = Run(opts)
	})
	if paperErr != nil {
		t.Fatal(paperErr)
	}
	if len(paperOut.Docs) < 2000 || len(paperOut.ExcludedTerms) == 0 {
		t.Fatalf("fixture too small: %d docs, %d excluded terms", len(paperOut.Docs), len(paperOut.ExcludedTerms))
	}
	return paperOut
}

// sameModel fails unless a and b hold the same serving model, bit for
// bit: everything a server reads, and the per-topic recipe counts.
func sameModel(t *testing.T, a, b *Output) {
	t.Helper()
	ma, mb := a.Model, b.Model
	if ma.K != mb.K || ma.V != mb.V || ma.UseEmulsion != mb.UseEmulsion ||
		math.Float64bits(ma.Alpha) != math.Float64bits(mb.Alpha) ||
		math.Float64bits(ma.Gamma) != math.Float64bits(mb.Gamma) ||
		math.Float64bits(ma.EmulsionWeight) != math.Float64bits(mb.EmulsionWeight) {
		t.Fatal("model scalars differ")
	}
	for k := range ma.Phi {
		sameBits(t, "phi", ma.Phi[k], mb.Phi[k])
	}
	for _, cs := range [][2][]core.Component{{ma.Gel, mb.Gel}, {ma.Emu, mb.Emu}} {
		if len(cs[0]) != len(cs[1]) {
			t.Fatalf("%d vs %d components", len(cs[0]), len(cs[1]))
		}
		for k := range cs[0] {
			ca, cb := cs[0][k], cs[1][k]
			sameBits(t, "mean", ca.Mean, cb.Mean)
			if ca.Precision.R != cb.Precision.R || ca.Precision.C != cb.Precision.C {
				t.Fatal("precision shape differs")
			}
			sameBits(t, "precision", ca.Precision.Data, cb.Precision.Data)
		}
	}
	sameBits(t, "loglik", ma.LogLik, mb.LogLik)
	if !reflect.DeepEqual(a.ExcludedTerms, b.ExcludedTerms) {
		t.Fatal("excluded terms differ")
	}
	if ca, cb := ma.DocsPerTopic(), mb.DocsPerTopic(); !reflect.DeepEqual(ca, cb) {
		t.Fatalf("docs per topic: %v vs %v", ca, cb)
	}
}

// modelOnly fails unless out is a LoadModel result: no fit record.
func modelOnly(t *testing.T, out *Output) {
	t.Helper()
	if out.Docs != nil || out.Model.Theta != nil || out.Model.Y != nil || len(out.Model.TopicDocs) != out.Model.K {
		t.Fatalf("model load kept a fit record: %d docs, %d θ rows, %d y, topic docs %v",
			len(out.Docs), len(out.Model.Theta), len(out.Model.Y), out.Model.TopicDocs)
	}
}

// TestLoadModelMatchesLoadBundle: on a paper-scale bundle, LoadModel
// returns the serving model LoadBundle returns, bit
// for bit, with the per-topic recipe counts θ gives, and no fit record.
func TestLoadModelMatchesLoadBundle(t *testing.T) {
	out := paperOutput(t)
	cur, _, err := out.EncodeBundle()
	if err != nil {
		t.Fatal(err)
	}
	want, err := LoadBundle(bytes.NewReader(cur))
	if err != nil {
		t.Fatal(err)
	}
	if got := want.Model.DocsPerTopic(); !reflect.DeepEqual(got, out.Model.DocsPerTopic()) {
		t.Fatalf("loaded docs per topic %v, fitted %v", got, out.Model.DocsPerTopic())
	}
	for _, tc := range []struct {
		name   string
		bundle []byte
	}{
		{"schema3", cur},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, err := LoadBundle(bytes.NewReader(tc.bundle))
			if err != nil {
				t.Fatal(err)
			}
			model, err := LoadModel(bytes.NewReader(tc.bundle))
			if err != nil {
				t.Fatal(err)
			}
			modelOnly(t, model)
			sameModel(t, full, model)
			sameModel(t, want, model)
			if model.Recipes() != len(full.Docs) {
				t.Fatalf("model load reports %d recipes, bundle holds %d", model.Recipes(), len(full.Docs))
			}
		})
	}
}

// TestLoadModelSkipsFitRecord documents the split contract on a
// paper-scale bundle re-digested after damage: LoadModel never reads
// the fit record, so damage there loads the same serving model, while
// LoadBundle rejects it with ErrCorrupt — as it does stored per-topic
// counts that disagree with θ, which LoadModel serves as stored.
func TestLoadModelSkipsFitRecord(t *testing.T) {
	out := paperOutput(t)
	raw := rawBundlePayload(t, out)
	want, err := LoadModel(bytes.NewReader(wrapPayload(t, bundleSchema, raw)))
	if err != nil {
		t.Fatal(err)
	}

	// The model part of a state whose first recipe moved topic.
	m := out.Model
	moved := &Output{ExcludedTerms: out.ExcludedTerms, Model: &core.Result{
		K: m.K, V: m.V, Alpha: m.Alpha, Gamma: m.Gamma, UseEmulsion: m.UseEmulsion, EmulsionWeight: m.EmulsionWeight,
		Phi: m.Phi, Gel: m.Gel, Emu: m.Emu, LogLik: m.LogLik, Theta: append([][]float64(nil), m.Theta...),
	}}
	row := make([]float64, m.K)
	row[(m.Assign()[0]+1)%m.K] = 1
	moved.Model.Theta[0] = row
	wrongCounts := moved.Model.DocsPerTopic()

	fitStart := modelPartEnd(t, raw)
	for _, tc := range []struct {
		name   string
		raw    []byte
		counts []int // the per-topic counts the model load reports
	}{
		{"fit-record-cut", raw[:fitStart+(len(raw)-fitStart)/2], want.Model.TopicDocs},
		{"fit-record-garbage", append(raw[:fitStart:fitStart], bytes.Repeat([]byte{0xff}, 64)...), want.Model.TopicDocs},
		{"topic-docs-disagree-with-theta", splicedPayload(t, moved, out), wrongCounts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bundle := wrapPayload(t, bundleSchema, tc.raw)
			if _, err := LoadBundle(bytes.NewReader(bundle)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("LoadBundle: got %v, want ErrCorrupt", err)
			}
			got, err := LoadModel(bytes.NewReader(bundle))
			if err != nil {
				t.Fatal(err)
			}
			modelOnly(t, got)
			if !reflect.DeepEqual(got.Model.DocsPerTopic(), tc.counts) {
				t.Fatalf("docs per topic %v, want %v", got.Model.DocsPerTopic(), tc.counts)
			}
			got.Model.TopicDocs = want.Model.TopicDocs
			sameModel(t, want, got)
		})
	}
}

// TestModelOnlyCloneKeepsTopicDocs: a LoadModel result, as a server
// swap installs it, is model-only: it reports the stored per-topic
// counts, and SaveBundle refuses it.
func TestModelOnlyCloneKeepsTopicDocs(t *testing.T) {
	out, err := LoadModel(bytes.NewReader(validBundleV2(t)))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Model.ModelOnly() {
		t.Fatal("a model load is not model-only")
	}
	if got, want := out.Model.DocsPerTopic(), tinyOutput().Model.DocsPerTopic(); !reflect.DeepEqual(got, want) {
		t.Fatalf("model load docs per topic %v, want %v", got, want)
	}
	if err := out.SaveBundle(io.Discard); err == nil {
		t.Fatal("SaveBundle wrote a model load")
	}
}

// TestLoadModelAllocBudget: a model load of the paper-scale bundle,
// over the container bytes already read, allocates under 256 KB and
// so runs no GC. It inflates and decodes the model part only, whose
// size is set by K, V and the chain length, not the corpus: the refit
// workload's bundle has the same. The whole raw payload would not fit
// the budget.
func TestLoadModelAllocBudget(t *testing.T) {
	out := paperOutput(t)
	b, _, err := out.EncodeBundle()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadModel(b); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = loadModel(b)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	raw := rawBundlePayload(t, out)
	t.Logf("container %d bytes, raw payload %d, model part %d, model load allocated %d",
		len(b), len(raw), modelPartEnd(t, raw), grew)
	if grew >= 256<<10 {
		t.Fatalf("model load allocated %d bytes, budget %d", grew, 256<<10)
	}
	if after.NumGC != before.NumGC {
		t.Fatalf("model load ran %d GCs", after.NumGC-before.NumGC)
	}
}
