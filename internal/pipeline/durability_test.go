package pipeline

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/recipe"
	"repro/internal/stats"
)

// mustGenerate resolves the synthetic corpus for tests that call
// RunOnRecipes twice on identical input.
func mustGenerate(t *testing.T, opts Options) []*recipe.Recipe {
	t.Helper()
	recipes, err := corpus.Generate(opts.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	return recipes
}

// tinyOutput builds a structurally valid Output without running the
// pipeline — cheap enough to serialize hundreds of times in the
// corruption tables and fuzz seeds.
func tinyOutput() *Output {
	ident := func() [][]float64 { return [][]float64{{1, 0}, {0, 1}} }
	comp := func(m0, m1 float64) core.Component {
		return core.Component{Mean: []float64{m0, m1}, Precision: stats.MatFromRows(ident())}
	}
	model := &core.Result{
		K: 2, V: 3, Alpha: 0.1, Gamma: 0.1, UseEmulsion: true, EmulsionWeight: 0.5,
		Phi:    [][]float64{{0.5, 0.25, 0.25}, {0.2, 0.4, 0.4}},
		Theta:  [][]float64{{0.7, 0.3}},
		Y:      []int{0},
		Gel:    []core.Component{comp(0, 0), comp(1, 1)},
		Emu:    []core.Component{comp(0, 1), comp(1, 0)},
		LogLik: []float64{-10, -9},
	}
	return &Output{
		Docs: []recipe.Doc{{
			RecipeID: "r1", TermIDs: []int{0, 2},
			Gel: []float64{0.1, 0.2}, Emulsion: []float64{0.3, 0.4},
		}},
		ExcludedTerms: map[string][]string{"ぷるぷる": {"なっつ"}},
		Model:         model,
	}
}

// validBundleV2 returns tinyOutput serialized in the current container
// format.
func validBundleV2(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tinyOutput().SaveBundle(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jsonBundlePayload renders o as the schema-1 payload older builds
// wrote: one gzip-compressed JSON document. A non-nil editModel
// rewrites the model JSON first, to plant damage the digest covers.
func jsonBundlePayload(t testing.TB, o *Output, editModel func([]byte) []byte) []byte {
	t.Helper()
	var modelBuf bytes.Buffer
	if err := o.Model.WriteJSON(&modelBuf); err != nil {
		t.Fatal(err)
	}
	model := modelBuf.Bytes()
	if editModel != nil {
		model = editModel(model)
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	enc := json.NewEncoder(gz)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(bundleJSON{
		Version:       bundleSchemaJSON,
		Docs:          o.Docs,
		ExcludedTerms: o.ExcludedTerms,
		Model:         json.RawMessage(model),
	}); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// schema1Bundle wraps o's schema-1 payload in the container, as the
// registries' older generations hold it.
func schema1Bundle(t testing.TB, o *Output) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeContainer(&buf, kindBundle, bundleSchemaJSON, jsonBundlePayload(t, o, nil), nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// validBundleV1 returns tinyOutput as the pre-container releases wrote
// it: a naked gzip+JSON stream with no envelope. The loader no longer
// reads that format; it must reject it as not a bundle.
func validBundleV1(t testing.TB) []byte {
	return jsonBundlePayload(t, tinyOutput(), nil)
}

// TestLoadBundleReadsBothFormats: the current loader accepts its own
// schema-3 output and schema-1 and schema-2 containers from older
// builds, recovering identical state from each.
func TestLoadBundleReadsBothFormats(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"v2-container", validBundleV2(t)},
		{"schema1-container", schema1Bundle(t, tinyOutput())},
		{"schema2-container", schema2Bundle(t, tinyOutput())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := LoadBundle(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			want := tinyOutput()
			if got.Model.K != want.Model.K || got.Model.V != want.Model.V {
				t.Errorf("model shape: %d/%d", got.Model.K, got.Model.V)
			}
			if len(got.Docs) != 1 || got.Docs[0].RecipeID != "r1" {
				t.Errorf("docs lost: %+v", got.Docs)
			}
			if len(got.ExcludedTerms["ぷるぷる"]) != 1 {
				t.Errorf("exclusions lost: %v", got.ExcludedTerms)
			}
			for k := range want.Model.Phi {
				for v := range want.Model.Phi[k] {
					if got.Model.Phi[k][v] != want.Model.Phi[k][v] {
						t.Fatal("φ lost precision")
					}
				}
			}
		})
	}
}

// TestLoadBundleRejectsDamage is the integrity acceptance table: every
// damaged, foreign, or future input is rejected by both loaders with
// the right typed sentinel, never a panic and never a naked io error.
func TestLoadBundleRejectsDamage(t *testing.T) {
	v2 := validBundleV2(t)
	v1 := validBundleV1(t)
	// The v2 header starts after magic(8)+len(4); find the payload
	// offset so bit flips land where the SHA-256 digest governs.
	hdrLen := int(v2[8])<<24 | int(v2[9])<<16 | int(v2[10])<<8 | int(v2[11])
	payloadOff := 12 + hdrLen

	flip := func(data []byte, i int) []byte {
		out := append([]byte(nil), data...)
		out[i] ^= 0x01
		return out
	}
	concat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	futureSchema := func() []byte {
		var buf bytes.Buffer
		if err := writeContainer(&buf, kindBundle, 99, []byte("opaque future payload"), nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	// A schema-1 container with a valid digest whose model JSON holds a
	// ragged precision matrix: the model decoder must reject it, not
	// panic building the matrix.
	raggedPrecision := func() []byte {
		ragged := func(model []byte) []byte {
			out := bytes.Replace(model, []byte(`"precision":[[1,0],[0,1]]`), []byte(`"precision":[[1,0],[0]]`), 1)
			if bytes.Equal(out, model) {
				t.Fatal("ragged-precision edit matched nothing")
			}
			return out
		}
		var buf bytes.Buffer
		if err := writeContainer(&buf, kindBundle, bundleSchemaJSON, jsonBundlePayload(t, tinyOutput(), ragged), nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	wrongKind := func() []byte {
		var buf bytes.Buffer
		if err := writeContainer(&buf, kindCheckpoint, 1, []byte("snapshot bytes"), nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCorrupt},
		{"not-a-bundle", []byte("plain text, definitely not a bundle"), ErrCorrupt},
		{"torn-magic", v2[:4], ErrCorrupt},
		{"torn-header-length", v2[:10], ErrCorrupt},
		{"torn-header", v2[:12+hdrLen/2], ErrCorrupt},
		{"torn-payload", v2[:len(v2)-10], ErrCorrupt},
		{"bit-flip-payload", flip(v2, payloadOff+5), ErrCorrupt},
		{"bit-flip-last-byte", flip(v2, len(v2)-1), ErrCorrupt},
		{"trailing-garbage", concat(v2, []byte("extra")), ErrCorrupt},
		{"header-not-json", concat(v2[:12], bytes.Repeat([]byte{'x'}, hdrLen), v2[payloadOff:]), ErrCorrupt},
		{"future-container-format", bytes.Replace(append([]byte(nil), v2...), []byte(`"format":2`), []byte(`"format":9`), 1), ErrVersion},
		{"future-schema", futureSchema, ErrVersion},
		{"checkpoint-as-bundle", wrongKind, ErrKind},
		{"schema1-ragged-precision", raggedPrecision, ErrCorrupt},
		// Naked gzip streams, whole or damaged, are not bundles.
		{"v1-naked-gzip", v1, ErrCorrupt},
		{"v1-torn-gzip", v1[:len(v1)/2], ErrCorrupt},
		{"v1-bit-flip", flip(v1, len(v1)/2), ErrCorrupt},
		{"v1-trailing-garbage", concat(v1, []byte("junk after the stream")), ErrCorrupt},
		{"v1-truncated-to-header", v1[:3], ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, load := range []func(io.Reader) (*Output, error){LoadBundle, LoadModel} {
				out, err := load(bytes.NewReader(tc.data))
				if err == nil {
					t.Fatalf("damaged input loaded successfully: %+v", out)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("got %v, want errors.Is(err, %v)", err, tc.want)
				}
				// The raw cause must be wrapped, not returned bare.
				if err.Error() == "unexpected EOF" || err.Error() == "EOF" {
					t.Fatalf("naked io error leaked: %v", err)
				}
			}
		})
	}
}

// hugeClaim is a truncated container of kind whose header claims a
// 2 GiB payload but which holds only six payload bytes: 94 bytes in all
// for a bundle.
func hugeClaim(t testing.TB, kind string) []byte {
	t.Helper()
	hdr, err := json.Marshal(containerHeader{Format: containerFormat, Kind: kind, Schema: 1, PayloadLen: 1 << 31})
	if err != nil {
		t.Fatal(err)
	}
	b := binary.BigEndian.AppendUint32([]byte(containerMagic), uint32(len(hdr)))
	b = append(b, hdr...)
	return append(b, 0x1f, 0x8b, 8, 0, 0, 0) // the start of a gzip header
}

// TestHugePayloadClaimAllocatesNothing: a header's payload length is a
// claim, not a size; a truncated container claiming 2 GiB must be
// rejected by every reader without allocating for the claim.
func TestHugePayloadClaimAllocatesNothing(t *testing.T) {
	bundle := hugeClaim(t, kindBundle)
	checkpoint := hugeClaim(t, kindCheckpoint)
	for _, tc := range []struct {
		name string
		load func() error
	}{
		{"LoadBundle", func() error { _, err := LoadBundle(bytes.NewReader(bundle)); return err }},
		{"LoadModel", func() error { _, err := LoadModel(bytes.NewReader(bundle)); return err }},
		{"BundleDigest", func() error { _, err := BundleDigest(bundle); return err }},
		{"readCheckpoint", func() error { _, _, err := readCheckpoint(bytes.NewReader(checkpoint)); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			grew := allocated(func() { err = tc.load() })
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			if grew > 1<<20 {
				t.Fatalf("rejecting a 2 GiB claim allocated %d bytes", grew)
			}
		})
	}
}

// TestLoadBundleAllocBudget: loading the paper-scale bundle allocates
// at most 4× its raw payload — the inflate buffer once, the decoded
// columns once, and the fold-in kernel — not a buffer grown by
// doubling.
func TestLoadBundleAllocBudget(t *testing.T) {
	opts := DefaultOptions()
	opts.Model.Iterations = 20 // the bundle's shape comes from the corpus, not the chain length
	out := runTestPipeline(t, opts)
	var buf bytes.Buffer
	if err := out.SaveBundle(&buf); err != nil {
		t.Fatal(err)
	}
	raw := rawBundlePayload(t, out)
	if _, err := LoadBundle(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var err error
	grew := allocated(func() { _, err = LoadBundle(bytes.NewReader(buf.Bytes())) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := 4 * uint64(len(raw)); grew > limit {
		t.Fatalf("loading a %d-byte raw payload allocated %d bytes (%.1f×), limit %d",
			len(raw), grew, float64(grew)/float64(len(raw)), limit)
	}
	t.Logf("raw payload %d bytes, load allocated %d (%.1f×)", len(raw), grew, float64(grew)/float64(len(raw)))
}

// TestLoadBundleFutureSchemaInV1Body: a schema-1 container whose JSON
// document claims a future inner version is a version problem, not
// corruption.
func TestLoadBundleFutureSchemaInV1Body(t *testing.T) {
	var body bytes.Buffer
	gz := gzip.NewWriter(&body)
	if _, err := gz.Write([]byte(`{"version":9,"docs":[],"model":{}}`)); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeContainer(&buf, kindBundle, bundleSchemaJSON, body.Bytes(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(&buf); !errors.Is(err, ErrVersion) {
		t.Fatalf("future inner schema should be ErrVersion, got %v", err)
	}
}

// TestSaveBundleFileAtomic: the on-disk write is crash-safe — the
// destination only ever holds a complete bundle, and a failed write
// leaves an existing file untouched.
func TestSaveBundleFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bundle")
	out := tinyOutput()
	if err := out.SaveBundleFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Model.K != out.Model.K {
		t.Error("round trip through file lost the model")
	}
	// No temp litter after success.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory not clean after save: %v", entries)
	}
	// A failing save (unfitted output) must leave the good file intact.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Output{}).SaveBundleFile(path); err == nil {
		t.Fatal("unfitted save should fail")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed save clobbered the existing bundle")
	}
}

func TestLoadBundleFileMissing(t *testing.T) {
	_, err := LoadBundleFile(filepath.Join(t.TempDir(), "nope.bundle"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file should surface fs.ErrNotExist, got %v", err)
	}
}

// checkpointSnapshot fits a tiny chain far enough to have a snapshot.
func checkpointSnapshot(t testing.TB) (*core.Data, core.Config, *core.Snapshot) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.K = 2
	cfg.Iterations = 8
	cfg.BurnIn = 2
	cfg.Seed = 7
	data := &core.Data{
		V:     3,
		Words: [][]int{{0, 1}, {2}, {0, 2}},
		Gel:   [][]float64{{0.1, 0.2}, {0.3, 0.1}, {0.2, 0.2}},
		Emu:   [][]float64{{0.5, 0.1}, {0.1, 0.5}, {0.3, 0.3}},
	}
	var snap *core.Snapshot
	cfg.CheckpointEvery = 4
	cfg.CheckpointFunc = func(sn *core.Snapshot) error { snap = sn; return nil }
	if _, err := core.Fit(data, cfg); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot emitted")
	}
	cfg.CheckpointFunc = nil
	cfg.CheckpointEvery = 0
	return data, cfg, snap
}

// TestCheckpointFileRoundTrip: write → load recovers a snapshot that
// resumes to the same result.
func TestCheckpointFileRoundTrip(t *testing.T) {
	data, cfg, snap := checkpointSnapshot(t)
	dir := t.TempDir()
	if err := WriteCheckpointFile(dir, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpointFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Sweep != snap.Sweep {
		t.Fatalf("sweep %d, want %d", loaded.Sweep, snap.Sweep)
	}
	if _, err := core.ResumeFit(data, cfg, loaded); err != nil {
		t.Fatalf("loaded checkpoint does not resume: %v", err)
	}
}

// TestCheckpointFileRejectsDamage: the checkpoint loader has the same
// integrity posture as the bundle loader.
func TestCheckpointFileRejectsDamage(t *testing.T) {
	_, _, snap := checkpointSnapshot(t)
	dir := t.TempDir()
	if err := WriteCheckpointFile(dir, snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CheckpointFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	write := func(t *testing.T, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("missing", func(t *testing.T) {
		if _, err := LoadCheckpointFile(t.TempDir()); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("want fs.ErrNotExist, got %v", err)
		}
	})
	t.Run("torn", func(t *testing.T) {
		write(t, good[:len(good)/2])
		if _, err := LoadCheckpointFile(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("bit-flip", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-7] ^= 0x10
		write(t, bad)
		if _, err := LoadCheckpointFile(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("bundle-as-checkpoint", func(t *testing.T) {
		write(t, validBundleV2(t))
		if _, err := LoadCheckpointFile(dir); !errors.Is(err, ErrKind) {
			t.Fatalf("want ErrKind, got %v", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		write(t, nil)
		if _, err := LoadCheckpointFile(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
}

// TestCheckpointWriter: async writes land on disk, metrics count them,
// and a dead target directory surfaces as a sticky error on the next
// Write — which is how the chain learns to stop.
func TestCheckpointWriter(t *testing.T) {
	_, _, snap := checkpointSnapshot(t)
	dir := t.TempDir()
	reg := obs.NewRegistry()
	w := NewCheckpointWriter(dir, reg)
	if err := w.Write(snap); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointFile(dir); err != nil {
		t.Fatalf("flushed checkpoint not loadable: %v", err)
	}
	if got := reg.Counter("checkpoint_writes_total", "", nil).Value(); got != 1 {
		t.Errorf("checkpoint_writes_total = %d, want 1", got)
	}
	if got := reg.Gauge("checkpoint_last_sweep", "", nil).Value(); got != float64(snap.Sweep) {
		t.Errorf("checkpoint_last_sweep = %v, want %d", got, snap.Sweep)
	}

	// Point a writer at a file-as-directory so every write fails.
	bad := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	wb := NewCheckpointWriter(filepath.Join(bad, "sub"), reg)
	if err := wb.Write(snap); err != nil {
		t.Fatalf("first write reports asynchronously, got %v", err)
	}
	if err := wb.Flush(); err == nil {
		t.Fatal("write into a non-directory should fail")
	}
	if err := wb.Write(snap); err == nil {
		t.Fatal("sticky error not surfaced on next Write")
	}
	if got := reg.Counter("checkpoint_write_errors_total", "", nil).Value(); got < 1 {
		t.Errorf("checkpoint_write_errors_total = %d, want ≥ 1", got)
	}
}

// TestPipelineCheckpointResume: end-to-end — a pipeline run with
// checkpointing leaves a resumable file, and resuming from it yields
// exactly the model an uninterrupted run produces (the chain re-runs
// only the sweeps after the last persisted checkpoint, so the final
// state must match bit for bit).
func TestPipelineCheckpointResume(t *testing.T) {
	opts := testOptions()
	opts.UseW2VFilter = false // keep the fixture fast; the filter is irrelevant here
	opts.Model.Iterations = 40
	opts.Corpus.Scale = 0.15
	recipes := mustGenerate(t, opts)

	dir := t.TempDir()
	opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 7}
	opts.Metrics = obs.NewRegistry()
	full, err := RunOnRecipes(recipes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := opts.Metrics.Counter("checkpoint_writes_total", "", nil).Value(); n < 1 {
		t.Fatalf("no checkpoints written during the run (count %d)", n)
	}
	sn, err := LoadCheckpointFile(dir)
	if err != nil {
		t.Fatalf("run left no loadable checkpoint: %v", err)
	}
	if sn.Sweep < opts.Checkpoint.Every {
		t.Fatalf("checkpoint at sweep %d, expected ≥ %d", sn.Sweep, opts.Checkpoint.Every)
	}

	// "Crash" happened: rerun the same options with Resume. The fit
	// restarts from the persisted sweep and must land on the identical
	// model.
	opts.Checkpoint.Resume = true
	resumed, err := RunOnRecipes(recipes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Metrics.Counter("checkpoint_loads_total", "", nil).Value() != 1 {
		t.Error("resume did not count a checkpoint load")
	}
	for k := range full.Model.Phi {
		for v := range full.Model.Phi[k] {
			if full.Model.Phi[k][v] != resumed.Model.Phi[k][v] {
				t.Fatalf("φ[%d][%d] diverged after resume: %v vs %v",
					k, v, resumed.Model.Phi[k][v], full.Model.Phi[k][v])
			}
		}
	}
	if len(full.Model.LogLik) != len(resumed.Model.LogLik) {
		t.Fatalf("loglik trace %d vs %d", len(resumed.Model.LogLik), len(full.Model.LogLik))
	}
}

// TestPipelineResumeWithoutCheckpointFallsBack: Resume with an empty
// directory is a fresh fit, not an error — so services can always pass
// -resume and survive their very first boot.
func TestPipelineResumeWithoutCheckpointFallsBack(t *testing.T) {
	opts := testOptions()
	opts.UseW2VFilter = false
	opts.Model.Iterations = 20
	opts.Checkpoint = CheckpointOptions{Dir: t.TempDir(), Every: 50, Resume: true}
	recipes := mustGenerate(t, opts)
	out, err := RunOnRecipes(recipes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Model == nil {
		t.Fatal("fresh fit did not happen")
	}
}
