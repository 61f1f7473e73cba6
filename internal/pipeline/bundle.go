package pipeline

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/recipe"
	"repro/internal/stats"
)

// Bundle payload schemas, carried in the container header's "schema"
// field. A bundle is the persistent form of a fitted pipeline:
// everything the annotation and linkage layers need, without the raw
// corpus. Bundles let services start from a file instead of refitting
// at boot.
const (
	// bundleSchemaJSON is the gzip-compressed JSON document (bundleJSON)
	// older builds wrote. It is no longer written, but registries hold
	// schema-1 generations that followers must keep loading.
	bundleSchemaJSON = 1
	// bundleSchemaBinary is the gzip-compressed binary columnar payload
	// (bundlebin.go) SaveBundle writes.
	bundleSchemaBinary = 2
)

// bundleJSON is the schema-1 document.
type bundleJSON struct {
	Version       int                 `json:"version"`
	Docs          []recipe.Doc        `json:"docs"`
	ExcludedTerms map[string][]string `json:"excluded_terms"`
	Model         json.RawMessage     `json:"model"`
}

// SaveBundle writes the fitted state (model, docs, term exclusions) in
// the format-2 durable container: a gzip-compressed schema-2 binary
// payload wrapped in a length-prefixed, SHA-256-digested envelope. Use
// SaveBundleFile for the crash-safe on-disk variant. A non-finite
// float anywhere in the state is an error.
func (o *Output) SaveBundle(w io.Writer) error {
	if o.Model == nil {
		return fmt.Errorf("pipeline: cannot save an unfitted output")
	}
	payload, err := o.bundlePayload()
	if err != nil {
		return err
	}
	return writeContainer(w, kindBundle, bundleSchemaBinary, payload, nil)
}

// EncodeBundle renders the fitted state as container bytes plus the
// hex SHA-256 payload digest the container carries — the content
// address a registry stores the bundle under. The digest is re-derived
// from the encoded bytes (not trusted from the writer), so the pair is
// self-consistent by construction. Encoding is deterministic: the same
// fitted state always yields the same bytes and digest.
func (o *Output) EncodeBundle() ([]byte, string, error) {
	var buf bytes.Buffer
	if err := o.SaveBundle(&buf); err != nil {
		return nil, "", err
	}
	digest, err := BundleDigest(buf.Bytes())
	if err != nil {
		return nil, "", fmt.Errorf("pipeline: re-reading encoded bundle: %w", err)
	}
	return buf.Bytes(), digest, nil
}

// bundlePayload streams the schema-2 payload through gzip.
func (o *Output) bundlePayload() ([]byte, error) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	bw := bufio.NewWriterSize(gz, 32<<10)
	if err := writeBundlePayload(bw, o.Docs, o.ExcludedTerms, o.Model); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("pipeline: encoding bundle: %w", err)
	}
	if err := gz.Close(); err != nil {
		return nil, fmt.Errorf("pipeline: closing bundle: %w", err)
	}
	return buf.Bytes(), nil
}

// LoadBundle reads a bundle written by SaveBundle: a format-2
// container holding a schema-2 binary payload, or a schema-1 JSON one
// from an older build. Truncated, bit-flipped and trailing-garbage
// inputs, and anything that is not a container, are rejected with an
// error wrapping ErrCorrupt; future container or schema versions with
// ErrVersion; a checkpoint file passed by mistake with ErrKind. The
// returned Output carries the model, docs, exclusions and dictionary;
// the raw recipe corpus is not part of a bundle (AllRecipes and Kept
// are nil).
func LoadBundle(r io.Reader) (*Output, error) {
	b, err := readSource(r)
	if err != nil {
		return nil, err
	}
	return loadBundle(b)
}

// loadBundle is LoadBundle over the container bytes b.
func loadBundle(b []byte) (*Output, error) {
	payload, hdr, err := parseContainer(b, kindBundle)
	if err != nil {
		return nil, err
	}
	if hdr.Schema != bundleSchemaJSON && hdr.Schema != bundleSchemaBinary {
		return nil, fmt.Errorf("pipeline: bundle schema %d, this build reads %d and %d: %w",
			hdr.Schema, bundleSchemaJSON, bundleSchemaBinary, ErrVersion)
	}
	raw, err := gunzipPayload(payload)
	if err != nil {
		return nil, err
	}
	if hdr.Schema == bundleSchemaJSON {
		return decodeBundleJSON(raw)
	}
	return decodeBundlePayload(raw)
}

// maxDeflateRatio is the most a deflate stream can expand: no code is
// shorter than two bits, and none stands for more than 258 bytes.
const maxDeflateRatio = 1032

// gunzipPayload decompresses a bundle payload: exactly one gzip
// member, read to EOF so its CRC-32 and length footer are verified,
// with nothing after it. Every failure wraps ErrCorrupt.
//
// The output buffer is allocated once, at the size the member's
// trailer (ISIZE) declares, so a load never grows and copies it. The
// claim is trusted only up to deflate's maximum ratio over the
// compressed length, and the gzip reader still checks it against the
// bytes it inflates: a stream shorter than the claim fails ReadFull, a
// longer one yields a byte where EOF must be.
func gunzipPayload(payload []byte) ([]byte, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("pipeline: bundle stream of %d bytes has no trailer: %w", len(payload), ErrCorrupt)
	}
	size := uint64(binary.LittleEndian.Uint32(payload[len(payload)-4:]))
	if size > maxDeflateRatio*uint64(len(payload)) {
		return nil, fmt.Errorf("pipeline: bundle stream claims %d bytes from %d compressed: %w",
			size, len(payload), ErrCorrupt)
	}
	src := bytes.NewReader(payload)
	gz, err := gzip.NewReader(src)
	if err != nil {
		return nil, fmt.Errorf("pipeline: opening bundle: %w: %w", ErrCorrupt, err)
	}
	gz.Multistream(false)
	raw := make([]byte, size)
	if _, err := io.ReadFull(gz, raw); err != nil {
		return nil, fmt.Errorf("pipeline: bundle stream damaged: %w: %w", ErrCorrupt, err)
	}
	var more [1]byte
	if n, err := gz.Read(more[:]); n != 0 {
		return nil, fmt.Errorf("pipeline: bundle stream holds more than the %d bytes its trailer declares: %w", size, ErrCorrupt)
	} else if err != io.EOF {
		return nil, fmt.Errorf("pipeline: bundle stream damaged: %w: %w", ErrCorrupt, err)
	}
	// A *bytes.Reader is an io.ByteReader, so the decompressor reads no
	// further than the member's footer: any byte left is trailing data.
	if src.Len() != 0 {
		return nil, fmt.Errorf("pipeline: %d trailing bytes after bundle stream: %w", src.Len(), ErrCorrupt)
	}
	return raw, nil
}

// decodeBundleJSON decodes a schema-1 document. Syntax damage and
// trailing garbage are corruption; a document claiming another inner
// version is a version problem.
func decodeBundleJSON(raw []byte) (*Output, error) {
	var b bundleJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("pipeline: decoding bundle: %w: %w", ErrCorrupt, err)
	}
	if b.Version != bundleSchemaJSON {
		return nil, fmt.Errorf("pipeline: bundle document version %d, schema %d holds version %d: %w",
			b.Version, bundleSchemaJSON, bundleSchemaJSON, ErrVersion)
	}
	model, err := core.ReadResultJSON(bytes.NewReader(b.Model))
	if err != nil {
		return nil, fmt.Errorf("pipeline: bundle model: %w: %w", ErrCorrupt, err)
	}
	return finishBundle(b.Docs, b.ExcludedTerms, model)
}

// finishBundle makes the checks every schema shares and assembles the
// loaded Output.
func finishBundle(docs []recipe.Doc, excluded map[string][]string, model *core.Result) (*Output, error) {
	if len(docs) != len(model.Theta) {
		return nil, fmt.Errorf("pipeline: bundle has %d docs but model has %d rows: %w",
			len(docs), len(model.Theta), ErrCorrupt)
	}
	// Prebuild the fold-in kernel: it validates the model shape (a
	// structurally broken bundle is corruption, not a serving-time
	// panic) and pays the per-model cache cost at load instead of on
	// the first annotation request.
	if err := buildBundleKernel(model); err != nil {
		return nil, fmt.Errorf("pipeline: bundle model: %w: %w", ErrCorrupt, err)
	}
	if excluded == nil {
		excluded = map[string][]string{}
	}
	return &Output{
		Dict:          lexicon.Default(),
		Docs:          docs,
		ExcludedTerms: excluded,
		Model:         model,
	}, nil
}

// buildBundleKernel builds model's fold-in kernel. A precision matrix
// no jitter makes positive definite panics inside the build with an
// error wrapping stats.ErrNumericalHealth; from a file, that is a bad
// bundle, so the panic comes back as that error.
func buildBundleKernel(model *core.Result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(error)
			if !ok || !errors.Is(e, stats.ErrNumericalHealth) {
				panic(r)
			}
			err = e
		}
	}()
	_, err = model.BuildKernel()
	return err
}
