package pipeline

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// rawBundlePayload returns o's schema-3 payload before compression.
func rawBundlePayload(t testing.TB, o *Output) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeBundlePayload(bw, o.Docs, o.ExcludedTerms, o.Model); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// splicedPayload returns a schema-3 payload whose model part is
// model's and whose fit record is fit's, as writeBundlePayload would
// write each. A fit record that does not match the model part passes
// LoadModel, which never reads it, and must fail LoadBundle.
func splicedPayload(t testing.TB, model, fit *Output) []byte {
	t.Helper()
	var part bytes.Buffer
	pw := bufio.NewWriter(&part)
	pe := &payloadEncoder{w: pw}
	pe.modelPart(model.ExcludedTerms, model.Model)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	e := &payloadEncoder{w: bw}
	if err := pw.Flush(); err != nil || pe.err != nil {
		t.Fatal(err, pe.err)
	}
	e.uvarint(part.Len())
	bw.Write(part.Bytes())
	e.fitPart(fit.Docs, fit.Model)
	if err := bw.Flush(); err != nil || e.err != nil {
		t.Fatal(err, e.err)
	}
	return buf.Bytes()
}

// modelPartEnd returns the offset in a schema-3 payload where the fit
// record starts.
func modelPartEnd(t testing.TB, raw []byte) int {
	t.Helper()
	n, w := binary.Uvarint(raw)
	if w <= 0 || w+int(n) > len(raw) {
		t.Fatalf("payload has no model part: length %d, %d bytes", n, len(raw))
	}
	return w + int(n)
}

// writeSchema2Payload writes o as the schema-2 payload older builds
// wrote: one part, the fit record before φ, and no topic docs.
func writeSchema2Payload(w *bufio.Writer, o *Output) error {
	m := o.Model
	e := &payloadEncoder{w: w, section: "counts"}
	floats, ints := len(m.LogLik), len(m.Y)
	for i := range o.Docs {
		floats += len(o.Docs[i].Gel) + len(o.Docs[i].Emulsion)
		ints += len(o.Docs[i].TermIDs)
	}
	for _, rows := range [][][]float64{m.Phi, m.Theta} {
		for _, row := range rows {
			floats += len(row)
		}
	}
	for _, cs := range [][]core.Component{m.Gel, m.Emu} {
		for _, c := range cs {
			floats += len(c.Mean)
			if c.Precision != nil {
				floats += len(c.Precision.Data)
			}
		}
	}
	e.uvarint(floats)
	e.uvarint(ints)
	e.section = "model"
	e.scalars(m)
	e.section = "docs"
	e.docs(o.Docs)
	e.section = "excluded"
	e.excluded(o.ExcludedTerms)
	e.section = "phi"
	for _, row := range m.Phi {
		e.floats(row)
	}
	e.section = "theta"
	optLen(e, m.Theta)
	for _, row := range m.Theta {
		e.floats(row)
	}
	e.section = "y"
	optLen(e, m.Y)
	e.ints(m.Y)
	e.section = "gel"
	e.components(m.Gel)
	e.section = "emu"
	e.components(m.Emu)
	e.section = "loglik"
	optLen(e, m.LogLik)
	e.floats(m.LogLik)
	return e.err
}

// rawSchema2Payload returns o's schema-2 payload before compression.
func rawSchema2Payload(t testing.TB, o *Output) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeSchema2Payload(bw, o); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wrapPayload compresses raw and wraps it in a container of schema
// with a freshly computed digest, so damage inside raw passes the
// container's checks and reaches the payload decoder.
func wrapPayload(t testing.TB, schema int, raw []byte) []byte {
	t.Helper()
	var gzBuf bytes.Buffer
	gz := gzip.NewWriter(&gzBuf)
	if _, err := gz.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeContainer(&buf, kindBundle, schema, gzBuf.Bytes(), nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// schema2Bundle returns o as the schema-2 container older builds wrote.
func schema2Bundle(t testing.TB, o *Output) []byte {
	return wrapPayload(t, bundleSchemaBinary, rawSchema2Payload(t, o))
}

// sameBits fails unless a and b hold bit-identical floats.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) || (a == nil) != (b == nil) {
		t.Fatalf("%s: length %d (nil %v) vs %d (nil %v)", what, len(a), a == nil, len(b), b == nil)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// TestBundleSchemasLoadIdentically: a paper-scale fitted state saved
// as a schema-1 JSON container and as the schema-2 binary one loads to
// the same Output, float for float — including the nil-versus-empty
// slices and the unknown truth the JSON decode preserves.
func TestBundleSchemasLoadIdentically(t *testing.T) {
	opts := DefaultOptions()
	opts.Corpus.ConfoundRate = 0.3 // exercise excluded-term persistence
	opts.Model.Iterations = 40
	opts.Model.BurnIn = 20
	out := runTestPipeline(t, opts)
	if len(out.Docs) < 2000 || len(out.ExcludedTerms) == 0 {
		t.Fatalf("fixture too small: %d docs, %d excluded terms", len(out.Docs), len(out.ExcludedTerms))
	}
	out.Docs[0].Truth = -1
	out.Docs[1].TermIDs = nil
	out.Docs[2].TermIDs = []int{}

	v1, err := LoadBundle(bytes.NewReader(schema1Bundle(t, out)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.SaveBundle(&buf); err != nil {
		t.Fatal(err)
	}
	v2, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(v1.Docs, v2.Docs) {
		t.Fatal("docs differ")
	}
	if v2.Docs[0].Truth != -1 || v2.Docs[1].TermIDs != nil || v2.Docs[2].TermIDs == nil {
		t.Fatalf("edge docs not preserved: %+v %+v %+v", v2.Docs[0], v2.Docs[1], v2.Docs[2])
	}
	for i := range v1.Docs {
		sameBits(t, "doc gel", v1.Docs[i].Gel, v2.Docs[i].Gel)
		sameBits(t, "doc emulsion", v1.Docs[i].Emulsion, v2.Docs[i].Emulsion)
	}
	if !reflect.DeepEqual(v1.ExcludedTerms, v2.ExcludedTerms) {
		t.Fatalf("excluded terms differ: %v vs %v", v1.ExcludedTerms, v2.ExcludedTerms)
	}
	a, b := v1.Model, v2.Model
	if a.K != b.K || a.V != b.V || a.UseEmulsion != b.UseEmulsion ||
		math.Float64bits(a.Alpha) != math.Float64bits(b.Alpha) ||
		math.Float64bits(a.Gamma) != math.Float64bits(b.Gamma) ||
		math.Float64bits(a.EmulsionWeight) != math.Float64bits(b.EmulsionWeight) {
		t.Fatal("model scalars differ")
	}
	if !reflect.DeepEqual(a.Y, b.Y) {
		t.Fatal("Y differs")
	}
	for k := range a.Phi {
		sameBits(t, "phi", a.Phi[k], b.Phi[k])
	}
	if len(a.Theta) != len(b.Theta) {
		t.Fatalf("theta rows %d vs %d", len(a.Theta), len(b.Theta))
	}
	for d := range a.Theta {
		sameBits(t, "theta", a.Theta[d], b.Theta[d])
	}
	for _, cs := range [][2][]core.Component{{a.Gel, b.Gel}, {a.Emu, b.Emu}} {
		for k := range cs[0] {
			ca, cb := cs[0][k], cs[1][k]
			sameBits(t, "mean", ca.Mean, cb.Mean)
			if ca.Precision.R != cb.Precision.R || ca.Precision.C != cb.Precision.C {
				t.Fatal("precision shape differs")
			}
			sameBits(t, "precision", ca.Precision.Data, cb.Precision.Data)
		}
	}
	sameBits(t, "loglik", a.LogLik, b.LogLik)

	for i := 0; i < 20; i++ {
		d := v1.Docs[i]
		ta, err := a.FoldIn(d.TermIDs, d.Gel, d.Emulsion, 50, 7)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := b.FoldIn(d.TermIDs, d.Gel, d.Emulsion, 50, 7)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "fold-in theta", ta, tb)
	}
}

// TestEncodeBundleDeterministic: the same state always encodes to the
// same bytes and digest, whatever order the exclusion map iterates in —
// refit crash convergence and registry Publish dedup rest on it.
func TestEncodeBundleDeterministic(t *testing.T) {
	o := tinyOutput()
	o.ExcludedTerms = map[string][]string{
		"ぷるぷる": {"なっつ"},
		"とろとろ": {"ちーず", "くりーむ"},
		"さくさく": nil,
		"ふわふわ": {},
		"もちもち": {"こめ"},
	}
	want, wantDigest, err := o.EncodeBundle()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, digest, err := o.EncodeBundle()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || digest != wantDigest {
			t.Fatalf("encode %d differs: digest %s vs %s", i, digest, wantDigest)
		}
	}
	loaded, err := LoadBundle(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.ExcludedTerms, o.ExcludedTerms) {
		t.Fatalf("exclusions: %v", loaded.ExcludedTerms)
	}
}

// TestSaveBundleRejectsNonFinite: NaN and ±Inf cannot be saved, as
// with the JSON encoder.
func TestSaveBundleRejectsNonFinite(t *testing.T) {
	for name, spoil := range map[string]func(*Output){
		"nan-phi":       func(o *Output) { o.Model.Phi[0][1] = math.NaN() },
		"inf-alpha":     func(o *Output) { o.Model.Alpha = math.Inf(1) },
		"neg-inf-doc":   func(o *Output) { o.Docs[0].Gel[0] = math.Inf(-1) },
		"nan-loglik":    func(o *Output) { o.Model.LogLik[1] = math.NaN() },
		"inf-precision": func(o *Output) { o.Model.Emu[1].Precision.Data[3] = math.Inf(1) },
	} {
		t.Run(name, func(t *testing.T) {
			o := tinyOutput()
			spoil(o)
			if err := o.SaveBundle(&bytes.Buffer{}); err == nil {
				t.Fatal("non-finite value saved")
			}
		})
	}
}

// TestLoadBundleRejectsDamagedPayload: damage inside a schema-3 or
// schema-2 payload, re-digested so it reaches the decoder, is
// ErrCorrupt from LoadBundle and never a panic. LoadModel must reject
// the same damage in a schema-3 model part, and load past damage in
// the fit record, which it never reads; a schema-2 payload has no
// model part of its own, so LoadModel rejects all its damage. The
// schema-2 rows carry a "schema2-" prefix.
func TestLoadBundleRejectsDamagedPayload(t *testing.T) {
	type damage struct {
		name    string
		raw     []byte
		fitOnly bool // schema 3 holds the damage in its fit record
	}
	// damaged returns the damage shapes both schemas share, each
	// encoded by encode.
	damaged := func(encode func(testing.TB, *Output) []byte) []damage {
		raw := encode(t, tinyOutput())
		spoiled := func(spoil func(*Output)) []byte {
			o := tinyOutput()
			spoil(o)
			return encode(t, o)
		}
		// α (0.1) is the first float in the payload.
		nanAlpha := append([]byte(nil), raw...)
		alpha := bytes.Index(nanAlpha, binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.1)))
		binary.LittleEndian.PutUint64(nanAlpha[alpha:], math.Float64bits(math.NaN()))
		// The encoder sorts exclusion keys, so forge a repeat of "a".
		dupKey := bytes.Replace(spoiled(func(o *Output) {
			o.ExcludedTerms = map[string][]string{"a": nil, "b": nil}
		}), []byte{1, 'b'}, []byte{1, 'a'}, 1)
		return []damage{
			{"empty", nil, false},
			{"bytes-after-last-section", append(append([]byte(nil), raw...), 0), true},
			{"docs-not-theta-rows", spoiled(func(o *Output) { o.Model.Theta = append(o.Model.Theta, []float64{0.5, 0.5}) }), true},
			{"k-disagrees-with-phi", spoiled(func(o *Output) { o.Model.K = 3 }), false},
			{"v-disagrees-with-phi", spoiled(func(o *Output) { o.Model.V = 4 }), false},
			{"zero-k", spoiled(func(o *Output) { o.Model.K = 0 }), false},
			{"ragged-precision", spoiled(func(o *Output) {
				o.Model.Gel[0].Precision = &stats.Mat{R: 2, C: 2, Data: []float64{1, 0, 0}}
			}), false},
			{"non-square-precision", spoiled(func(o *Output) {
				o.Model.Gel[1].Precision = &stats.Mat{R: 2, C: 3, Data: []float64{1, 0, 0, 0, 1, 0}}
			}), false},
			{"missing-precision", spoiled(func(o *Output) { o.Model.Emu[0].Precision = nil }), false},
			{"mean-disagrees-with-precision", spoiled(func(o *Output) { o.Model.Emu[0].Mean = []float64{0, 1, 2} }), false},
			{"indefinite-precision", spoiled(func(o *Output) {
				o.Model.Gel[0].Precision = stats.MatFromRows([][]float64{{-1e300, 0}, {0, 1}})
			}), false},
			{"nan-float", nanAlpha, false},
			{"duplicate-excluded-key", dupKey, false},
		}
	}

	raw := rawBundlePayload(t, tinyOutput())
	_, prefix := binary.Uvarint(raw)
	fitStart := modelPartEnd(t, raw)
	// The model part of a state whose one recipe is in topic 1, before
	// the fit record of tinyOutput, whose recipe is in topic 0.
	flipped := tinyOutput()
	flipped.Model.Theta = [][]float64{{0.3, 0.7}}
	schema3 := append(damaged(rawBundlePayload),
		damage{"cut-in-counts", raw[:prefix+1], false},
		damage{"cut-in-docs", raw[:fitStart+4], true},
		damage{"cut-in-loglik", raw[:fitStart-4], false},
		damage{"cut-in-y", raw[:len(raw)-1], true},
		damage{"topic-docs-disagree-with-theta", splicedPayload(t, flipped, tinyOutput()), true},
	)
	raw2 := rawSchema2Payload(t, tinyOutput())
	schema2 := append(damaged(rawSchema2Payload),
		damage{"cut-in-counts", raw2[:1], false},
		damage{"cut-in-docs", raw2[:len(raw2)/3], false},
		damage{"cut-in-loglik", raw2[:len(raw2)-4], false},
	)

	for _, sc := range []struct {
		prefix string
		schema int
		rows   []damage
	}{
		{"", bundleSchemaModelFirst, schema3},
		{"schema2-", bundleSchemaBinary, schema2},
	} {
		for _, tc := range sc.rows {
			modelLoad := tc.fitOnly && sc.schema == bundleSchemaModelFirst
			t.Run(sc.prefix+tc.name, func(t *testing.T) {
				bundle := wrapPayload(t, sc.schema, tc.raw)
				out, err := LoadBundle(bytes.NewReader(bundle))
				if err == nil {
					t.Fatalf("damaged payload loaded: %+v", out)
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("got %v, want ErrCorrupt", err)
				}
				out, err = LoadModel(bytes.NewReader(bundle))
				switch {
				case modelLoad && err != nil:
					t.Fatalf("damage behind the model part failed the model load: %v", err)
				case modelLoad && (out.Model.K != 2 || len(out.Model.TopicDocs) != 2):
					t.Fatalf("model load: K=%d, topic docs %v", out.Model.K, out.Model.TopicDocs)
				case !modelLoad && !errors.Is(err, ErrCorrupt):
					t.Fatalf("model load: got %v, want ErrCorrupt", err)
				}
			})
		}
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadBundleRejectsLyingGzipTrailer: the loader sizes its inflate
// buffer from the gzip trailer's ISIZE field, so a trailer that lies —
// re-digested so the lie reaches gunzip — must be ErrCorrupt, and a
// claim past deflate's maximum ratio must allocate nothing for it.
// The model loader bounds the model part by the same claim.
func TestLoadBundleRejectsLyingGzipTrailer(t *testing.T) {
	raw := rawBundlePayload(t, tinyOutput())
	var gzBuf bytes.Buffer
	gz := gzip.NewWriter(&gzBuf)
	if _, err := gz.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	stream := gzBuf.Bytes()
	overRatio := uint32(maxDeflateRatio*len(stream) + 1)

	for _, tc := range []struct {
		name  string
		claim uint32
	}{
		{"fewer-bytes-than-stream", uint32(len(raw) - 1)},
		{"more-bytes-than-stream", uint32(len(raw) + 1)},
		{"over-deflate-ratio", overRatio},
		{"max-uint32", math.MaxUint32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lying := append([]byte(nil), stream...)
			binary.LittleEndian.PutUint32(lying[len(lying)-4:], tc.claim)
			var buf bytes.Buffer
			if err := writeContainer(&buf, kindBundle, bundleSchemaModelFirst, lying, nil); err != nil {
				t.Fatal(err)
			}
			var err error
			grew := allocated(func() { _, err = LoadBundle(bytes.NewReader(buf.Bytes())) })
			// gunzip itself must refuse it, before the decoder sees a
			// short or padded payload.
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bundle stream") {
				t.Fatalf("got %v, want ErrCorrupt from the bundle stream", err)
			}
			if grew > 1<<20 || (tc.claim >= overRatio && grew >= uint64(tc.claim)) {
				t.Fatalf("a trailer claiming %d bytes made the load allocate %d", tc.claim, grew)
			}
			// The model load stops before the trailer, so only a claim
			// past the ratio is caught, but none sizes an allocation.
			grew = allocated(func() { _, err = LoadModel(bytes.NewReader(buf.Bytes())) })
			if (tc.claim >= overRatio) != errors.Is(err, ErrCorrupt) {
				t.Fatalf("model load of a trailer claiming %d bytes: %v", tc.claim, err)
			}
			if grew > 1<<20 {
				t.Fatalf("a trailer claiming %d bytes made the model load allocate %d", tc.claim, grew)
			}
		})
	}
}
