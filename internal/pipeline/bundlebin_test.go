package pipeline

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

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

// TestSaveBundleRejectsNonFinite: NaN and ±Inf cannot be saved.
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

// TestLoadBundleRejectsDamagedPayload: damage inside a payload,
// re-digested so it reaches the decoder, is ErrCorrupt from LoadBundle
// and never a panic. LoadModel must reject the same damage in the
// model part, and load past damage in the fit record, which it never
// reads. The rows with a "schema2-" prefix put each damaged payload in
// a schema-2 container: both loaders refuse it by its header with
// ErrVersion, so no damage reaches a decoder.
func TestLoadBundleRejectsDamagedPayload(t *testing.T) {
	type damage struct {
		name    string
		raw     []byte
		fitOnly bool // schema 3 holds the damage in its fit record
	}
	raw := rawBundlePayload(t, tinyOutput())
	spoiled := func(spoil func(*Output)) []byte {
		o := tinyOutput()
		spoil(o)
		return rawBundlePayload(t, o)
	}
	// α (0.1) is the first float in the payload.
	nanAlpha := append([]byte(nil), raw...)
	alpha := bytes.Index(nanAlpha, binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.1)))
	binary.LittleEndian.PutUint64(nanAlpha[alpha:], math.Float64bits(math.NaN()))
	// The encoder sorts exclusion keys, so forge a repeat of "a".
	dupKey := bytes.Replace(spoiled(func(o *Output) {
		o.ExcludedTerms = map[string][]string{"a": nil, "b": nil}
	}), []byte{1, 'b'}, []byte{1, 'a'}, 1)
	rows := []damage{
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
	_, prefix := binary.Uvarint(raw)
	fitStart := modelPartEnd(t, raw)
	// The model part of a state whose one recipe is in topic 1, before
	// the fit record of tinyOutput, whose recipe is in topic 0.
	flipped := tinyOutput()
	flipped.Model.Theta = [][]float64{{0.3, 0.7}}
	rows = append(rows,
		damage{"cut-in-counts", raw[:prefix+1], false},
		damage{"cut-in-docs", raw[:fitStart+4], true},
		damage{"cut-in-loglik", raw[:fitStart-4], false},
		damage{"cut-in-y", raw[:len(raw)-1], true},
		damage{"topic-docs-disagree-with-theta", splicedPayload(t, flipped, tinyOutput()), true},
	)

	for _, sc := range []struct {
		prefix string
		schema int
	}{
		{"", bundleSchema},
		{"schema2-", 2},
	} {
		for _, tc := range rows {
			t.Run(sc.prefix+tc.name, func(t *testing.T) {
				bundle := wrapPayload(t, sc.schema, tc.raw)
				if sc.schema != bundleSchema {
					for _, load := range []func(io.Reader) (*Output, error){LoadBundle, LoadModel} {
						if _, err := load(bytes.NewReader(bundle)); !errors.Is(err, ErrVersion) {
							t.Fatalf("got %v, want ErrVersion", err)
						}
					}
					return
				}
				out, err := LoadBundle(bytes.NewReader(bundle))
				if err == nil {
					t.Fatalf("damaged payload loaded: %+v", out)
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("got %v, want ErrCorrupt", err)
				}
				out, err = LoadModel(bytes.NewReader(bundle))
				switch {
				case tc.fitOnly && err != nil:
					t.Fatalf("damage behind the model part failed the model load: %v", err)
				case tc.fitOnly && (out.Model.K != 2 || len(out.Model.TopicDocs) != 2):
					t.Fatalf("model load: K=%d, topic docs %v", out.Model.K, out.Model.TopicDocs)
				case !tc.fitOnly && !errors.Is(err, ErrCorrupt):
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
			if err := writeContainer(&buf, kindBundle, bundleSchema, lying, nil); err != nil {
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
