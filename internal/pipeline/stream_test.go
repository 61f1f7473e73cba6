package pipeline

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/recipe"
)

// bytesSource reopens an in-memory corpus — the reopenable-stream
// contract without touching disk.
func bytesSource(b []byte) StreamSource {
	return func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(b)), nil
	}
}

func streamCorpus(t testing.TB, scale float64) []byte {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.Scale = scale
	recs, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := corpus.GenerateTo(cfg, &buf, len(recs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunStreamMatchesInMemory: streaming the same corpus bytes that
// RunOnRecipes gets as decoded records must produce the identical
// fitted model — streaming changes memory behaviour, not results.
func TestRunStreamMatchesInMemory(t *testing.T) {
	raw := streamCorpus(t, 0.1)
	opts := testOptions()
	opts.UseW2VFilter = false // the in-memory and reservoir w2v passes see different sentence sets
	opts.Model.Iterations = 60
	opts.Model.BurnIn = 30

	var recs []*recipe.Recipe
	rep, err := recipe.StreamJSONLenient(bytes.NewReader(raw), 0, func(r *recipe.Recipe) error { recs = append(recs, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("generated corpus had %d skips", len(rep.Skipped))
	}
	for _, r := range recs {
		if err := r.Resolve(); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := RunOnRecipes(recs, opts)
	if err != nil {
		t.Fatal(err)
	}

	got, err := RunStream(bytesSource(raw), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.AllRecipes != nil || got.Kept != nil {
		t.Fatal("stream run materialized the corpus")
	}
	if got.Ingest == nil {
		t.Fatal("stream run reported no ingest stats")
	}
	if len(got.Docs) != len(ref.Docs) {
		t.Fatalf("stream kept %d docs, in-memory kept %d", len(got.Docs), len(ref.Docs))
	}
	for i := range ref.Docs {
		if got.Docs[i].RecipeID != ref.Docs[i].RecipeID {
			t.Fatalf("doc %d: stream %s vs in-memory %s", i, got.Docs[i].RecipeID, ref.Docs[i].RecipeID)
		}
	}
	for d := range ref.Model.Y {
		if got.Model.Y[d] != ref.Model.Y[d] {
			t.Fatalf("Y[%d] = %d, want %d", d, got.Model.Y[d], ref.Model.Y[d])
		}
		for k := range ref.Model.Theta[d] {
			if got.Model.Theta[d][k] != ref.Model.Theta[d][k] {
				t.Fatalf("Theta[%d][%d] differs", d, k)
			}
		}
	}
	for k := range ref.Model.Phi {
		for v := range ref.Model.Phi[k] {
			if got.Model.Phi[k][v] != ref.Model.Phi[k][v] {
				t.Fatalf("Phi[%d][%d] differs", k, v)
			}
		}
	}
}

// TestRunStreamSkipsBadRecords: malformed lines and unresolvable
// records are reported, not fatal, and do not shift later documents.
func TestRunStreamSkipsBadRecords(t *testing.T) {
	raw := streamCorpus(t, 0.1)
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	var buf bytes.Buffer
	buf.Write(lines[0])
	buf.WriteByte('\n')
	buf.WriteString("{\"id\": \"broken\",\n") // torn record
	buf.WriteString(`{"id":"r-unresolvable","description":"かたいゼリー","ingredients":[{"name":"gelatin","amount":"???"}]}` + "\n")
	for _, ln := range lines[1:] {
		buf.Write(ln)
		buf.WriteByte('\n')
	}
	opts := testOptions()
	opts.UseW2VFilter = false
	opts.Model.Iterations = 40
	opts.Model.BurnIn = 20

	out, err := RunStream(bytesSource(buf.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ingest == nil || len(out.Ingest.Skipped) == 0 {
		t.Fatal("expected skip reports for damaged records")
	}
	var unresolvable bool
	for _, sk := range out.Ingest.Skipped {
		if strings.HasPrefix(sk.Reason, "unresolvable:") {
			unresolvable = true
		}
	}
	if !unresolvable {
		t.Fatalf("no unresolvable-record skip in %+v", out.Ingest.Skipped)
	}
	if len(out.Docs) == 0 {
		t.Fatal("no documents survived")
	}
}

// TestRunStreamWithW2VFilter: the reservoir-trained filter path runs
// end to end and actually excludes terms.
func TestRunStreamWithW2VFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("word2vec training")
	}
	raw := streamCorpus(t, 0.1)
	opts := testOptions()
	opts.Model.Iterations = 40
	opts.Model.BurnIn = 20
	out, err := RunStream(bytesSource(raw), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.W2V == nil {
		t.Fatal("no relatedness model was trained")
	}
	if len(out.Docs) == 0 {
		t.Fatal("no documents survived")
	}
}

func TestRunStreamNilSource(t *testing.T) {
	if _, err := RunStream(nil, testOptions()); err == nil {
		t.Fatal("nil source accepted")
	}
}
