package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
)

// FuzzLoadBundle drives arbitrary bytes through the bundle loader. The
// invariants under fuzzing: LoadBundle never panics; every rejection
// wraps one of the typed sentinels so callers can always classify the
// failure; and allocation stays within deflate's maximum expansion of
// the input, because no length the input claims — container payload
// or gzip trailer — sizes an allocation past what the bytes can hold.
// Seeds cover the schema read, the two older schemas refused, and the
// interesting damage shapes, so the fuzzer starts at the format
// boundaries instead of rediscovering them.
func FuzzLoadBundle(f *testing.F) {
	v2 := validBundleV2(f)
	raw := rawBundlePayload(f, tinyOutput())
	s1 := wrapPayload(f, 1, raw)
	f.Add(v2)
	f.Add(s1)
	f.Add(v2[:len(v2)/2])                          // torn container
	f.Add(s1[:len(s1)/2])                          // torn schema-1 container
	f.Add([]byte(containerMagic))                  // magic only
	f.Add([]byte{0x1f, 0x8b})                      // gzip magic only
	f.Add(append([]byte(nil), v2...)[:12])         // magic + header length, no header
	f.Add(bytes.Repeat([]byte{0}, 64))             // zeros
	f.Add([]byte(`{"version":1,"docs":[]}`))       // naked JSON, no gzip
	f.Add(append(append([]byte(nil), v2...), '!')) // trailing byte
	f.Add(hugeClaim(f, kindBundle))                // 94 bytes claiming a 2 GiB payload
	f.Add(wrapPayload(f, 2, raw))

	f.Fuzz(func(t *testing.T, data []byte) {
		var out *Output
		var err error
		grew := allocated(func() { out, err = LoadBundle(bytes.NewReader(data)) })
		if limit := maxDeflateRatio*uint64(len(data)) + 1<<20; grew > limit {
			t.Fatalf("loading %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		if err == nil {
			if out == nil || out.Model == nil {
				t.Fatal("nil output without error")
			}
			return
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrKind) {
			t.Fatalf("untyped load error: %v", err)
		}
	})
}

// FuzzLoadModel gives the serving loader FuzzLoadBundle's invariants
// — no panic, every rejection typed, allocation within deflate's
// maximum expansion of the input — and two of its own: a loaded model
// carries no fit record, only one topic count per topic; and whatever
// LoadBundle accepts, LoadModel accepts too.
func FuzzLoadModel(f *testing.F) {
	cur := validBundleV2(f) // schema 3
	raw := rawBundlePayload(f, tinyOutput())
	f.Add(cur)
	f.Add(wrapPayload(f, 2, raw))
	f.Add(wrapPayload(f, 1, raw))
	f.Add(cur[:len(cur)/2])                               // torn container
	f.Add(append(append([]byte(nil), cur...), '!'))       // trailing byte
	f.Add(hugeClaim(f, kindBundle))                       // 94 bytes claiming a 2 GiB payload
	f.Add(wrapPayload(f, bundleSchema, raw[:len(raw)-1])) // fit record cut, re-digested

	f.Fuzz(func(t *testing.T, data []byte) {
		var out *Output
		var err error
		grew := allocated(func() { out, err = LoadModel(bytes.NewReader(data)) })
		if limit := maxDeflateRatio*uint64(len(data)) + 1<<20; grew > limit {
			t.Fatalf("loading %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrKind) {
				t.Fatalf("untyped load error: %v", err)
			}
			if _, ferr := LoadBundle(bytes.NewReader(data)); ferr == nil {
				t.Fatalf("LoadBundle accepts what LoadModel rejects: %v", err)
			}
			return
		}
		m := out.Model
		if out.Docs != nil || m.Theta != nil || m.Y != nil || len(m.TopicDocs) != m.K {
			t.Fatalf("model load kept a fit record: %d docs, %d θ rows, %d y, %d topic docs for K=%d",
				len(out.Docs), len(m.Theta), len(m.Y), len(m.TopicDocs), m.K)
		}
	})
}

// FuzzBundlePayload drives arbitrary bytes straight into the payload
// decoders — the whole payload and the model part alone — which
// FuzzLoadBundle cannot reach: its inputs almost never carry a
// matching SHA-256 digest. Invariants: no panic; every rejection wraps
// ErrCorrupt; allocation stays proportional to the input, because
// every length prefix is checked against the bytes left before it
// sizes an allocation; and a loaded model holds no NaN or ±Inf.
func FuzzBundlePayload(f *testing.F) {
	raw := rawBundlePayload(f, tinyOutput())
	f.Add(raw)
	for _, n := range []int{0, 1, 4, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		f.Add(raw[:n]) // truncations
	}
	// Huge and "negative" (wrapped) length prefixes: the model part's
	// length, its float count, int count, K and V, the exclusion count,
	// the first key's length and its value count, and the loglik
	// length; then the fit record's float count, int count, doc count
	// and first ID length.
	_, w := binary.Uvarint(raw)
	fitStart := modelPartEnd(f, raw)
	excluded := w + 4 + 3*8 + 1
	const key = len("ぷるぷる")
	offs := []int{0, w, w + 1, w + 2, w + 3, excluded, excluded + 1, excluded + 2 + key, fitStart - 1 - 2*8,
		fitStart, fitStart + 1, fitStart + 2, fitStart + 3}
	for _, off := range offs {
		for _, v := range []uint64{1 << 40, math.MaxUint64} {
			bad := binary.AppendUvarint(append([]byte(nil), raw[:off]...), v)
			f.Add(append(bad, raw[off+1:]...))
		}
	}
	f.Add(bytes.Repeat([]byte{0xff}, 16)) // overlong varint
	f.Add(raw[fitStart:])                 // the fit record alone
	f.Add(raw[w:fitStart])                // the model part alone

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, decode := range []func([]byte) (*Output, error){decodeBundlePayload, decodeModelOutput} {
			checkPayloadDecode(t, data, decode)
		}
	})
}

// checkPayloadDecode runs decode on data and checks FuzzBundlePayload's
// invariants.
func checkPayloadDecode(t *testing.T, data []byte, decode func([]byte) (*Output, error)) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := decode(data)
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, 128*uint64(len(data))+1<<20; grew > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), grew, limit)
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped payload error: %v", err)
		}
		return
	}
	m := out.Model
	floats := [][]float64{m.LogLik, {m.Alpha, m.Gamma, m.EmulsionWeight}}
	floats = append(append(floats, m.Phi...), m.Theta...)
	for _, c := range append(append([]core.Component(nil), m.Gel...), m.Emu...) {
		floats = append(floats, c.Mean, c.Precision.Data)
	}
	for _, d := range out.Docs {
		floats = append(floats, d.Gel, d.Emulsion)
	}
	for _, fs := range floats {
		for _, x := range fs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("loaded a non-finite float %v", x)
			}
		}
	}
}

// FuzzIngestWatermark drives arbitrary bytes through the watermark
// loader: never panic, and every rejection typed.
func FuzzIngestWatermark(f *testing.F) {
	dir := f.TempDir()
	if err := SaveIngestWatermark(dir, 42, 1_700_000_000); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, IngestWatermarkFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2]) // torn write
	f.Add(good[:12])          // magic + header length only
	f.Add(validBundleV2(f))   // wrong kind
	f.Add([]byte(containerMagic))
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := readIngestWatermark(data); err != nil &&
			!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrKind) {
			t.Fatalf("untyped watermark error: %v", err)
		}
	})
}

// FuzzReadCheckpoint gives the checkpoint loader the same treatment.
func FuzzReadCheckpoint(f *testing.F) {
	_, _, snap := checkpointSnapshot(f)
	dir := f.TempDir()
	if err := WriteCheckpointFile(dir, snap); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(validBundleV2(f)) // wrong kind
	f.Add([]byte(containerMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sn, _, err := readCheckpoint(bytes.NewReader(data))
		if err == nil {
			if sn == nil {
				t.Fatal("nil snapshot without error")
			}
			return
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrKind) {
			t.Fatalf("untyped checkpoint error: %v", err)
		}
	})
}
