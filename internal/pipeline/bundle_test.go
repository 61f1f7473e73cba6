package pipeline

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"
)

func TestBundleRoundTrip(t *testing.T) {
	opts := testOptions()
	opts.Corpus.ConfoundRate = 0.3 // exercise excluded-term persistence
	out := runTestPipeline(t, opts)

	var buf bytes.Buffer
	if err := out.SaveBundle(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model.K != out.Model.K || got.Model.V != out.Model.V {
		t.Errorf("model shape lost: %d/%d vs %d/%d", got.Model.K, got.Model.V, out.Model.K, out.Model.V)
	}
	if len(got.Docs) != len(out.Docs) {
		t.Fatalf("docs: %d vs %d", len(got.Docs), len(out.Docs))
	}
	for i := range got.Docs {
		if got.Docs[i].RecipeID != out.Docs[i].RecipeID || got.Docs[i].Truth != out.Docs[i].Truth {
			t.Fatalf("doc %d differs", i)
		}
	}
	if len(got.ExcludedTerms) != len(out.ExcludedTerms) {
		t.Errorf("exclusions: %d vs %d", len(got.ExcludedTerms), len(out.ExcludedTerms))
	}
	// The loaded model supports fold-in (hyperparameters survived).
	theta, err := got.Model.FoldIn(nil, got.Docs[0].Gel, got.Docs[0].Emulsion, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(theta) != got.Model.K {
		t.Error("fold-in on loaded model broken")
	}
	// φ rows identical.
	for k := range out.Model.Phi {
		for v := range out.Model.Phi[k] {
			if out.Model.Phi[k][v] != got.Model.Phi[k][v] {
				t.Fatal("φ lost precision")
			}
		}
	}
}

func TestSaveBundleUnfitted(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Output{}).SaveBundle(&buf); err == nil {
		t.Error("unfitted output should fail")
	}
}

func TestLoadBundleErrors(t *testing.T) {
	// Not a container.
	if _, err := LoadBundle(strings.NewReader("plain text")); err == nil {
		t.Error("non-gzip input should fail")
	}
	// Naked gzip streams, as pre-container builds wrote, are not bundles.
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte("not json"))
	gz.Close()
	if _, err := LoadBundle(&buf); err == nil {
		t.Error("non-JSON bundle should fail")
	}
	// Not even with a future document version.
	buf.Reset()
	gz = gzip.NewWriter(&buf)
	gz.Write([]byte(`{"version": 99, "docs": [], "model": {}}`))
	gz.Close()
	if _, err := LoadBundle(&buf); err == nil {
		t.Error("wrong version should fail")
	}
}
