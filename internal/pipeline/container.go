// Durable container format (format version 2).
//
// Everything the pipeline persists — model bundles, fit checkpoints,
// the ingest watermark — shares one on-disk envelope built for crash safety and integrity:
//
//	offset 0   magic "RHEODUR1" (8 bytes)
//	offset 8   header length H, uint32 big-endian
//	offset 12  header: H bytes of JSON
//	           {"format":2,"kind":"bundle","schema":3,
//	            "payload_len":N,"sha256":"<hex digest>"}
//	offset 12+H  payload: N bytes, gzip-compressed
//	then EOF — trailing bytes are corruption, not slack.
//
// The length-prefixed header means a torn write is detected before any
// payload byte is parsed; the SHA-256 digest catches bit flips that
// gzip's CRC-32 window can miss; the kind field stops a checkpoint from
// being loaded as a bundle; and the format version lets a future layout
// be rejected cleanly instead of misparsed. The schema versions the
// payload of each kind. A bundle payload is schema 3, binary columns
// (bundlebin.go) in two parts: first the model a server reads (K, V,
// hyperparameters, exclusions, φ, the Gaussians, per-topic recipe
// counts, the log-likelihood trace) behind its byte length, then the
// fit record (docs, θ, Y), so a server inflates the first part and
// stops (LoadModel). It is the only bundle schema read: the schema-1
// JSON and schema-2 binary bundles older builds wrote are refused with
// ErrVersion and must be rebuilt. Checkpoints carry gzipped JSON, the
// watermark plain JSON. The header describes only the envelope: whether
// a checkpoint can be resumed is decided from the snapshot it holds.
// Readers ignore header keys they do not know, such as the "health"
// object older builds stamped into checkpoint headers.
package pipeline

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

const (
	containerMagic      = "RHEODUR1"
	containerFormat     = 2
	maxHeaderLen        = 1 << 16 // a header is a few hundred bytes; anything huge is garbage
	kindBundle          = "bundle"
	kindCheckpoint      = "checkpoint"
	kindIngestWatermark = "ingestwatermark"
)

// Typed load errors. Every rejected load wraps exactly one of these,
// so callers can distinguish "the file is damaged" (retry from a
// replica, refit) from "the file is from a newer build" (upgrade) from
// "wrong file" (operator error) with errors.Is. The underlying cause
// (io.ErrUnexpectedEOF, gzip.ErrChecksum, a JSON syntax error) is also
// wrapped and remains inspectable.
var (
	// ErrCorrupt marks truncated, bit-flipped, or trailing-garbage input.
	ErrCorrupt = errors.New("durable payload corrupt")
	// ErrVersion marks a container or schema version this build cannot read.
	ErrVersion = errors.New("durable format version unsupported")
	// ErrKind marks a structurally valid container of the wrong kind.
	ErrKind = errors.New("durable container kind mismatch")
)

// containerHeader is the JSON header between the magic and the payload.
type containerHeader struct {
	Format     int    `json:"format"`
	Kind       string `json:"kind"`
	Schema     int    `json:"schema"`
	PayloadLen int64  `json:"payload_len"`
	SHA256     string `json:"sha256"`
}

// writeContainer wraps payload in the format-2 envelope.
func writeContainer(w io.Writer, kind string, schema int, payload []byte) error {
	digest := sha256.Sum256(payload)
	hdr, err := json.Marshal(containerHeader{
		Format:     containerFormat,
		Kind:       kind,
		Schema:     schema,
		PayloadLen: int64(len(payload)),
		SHA256:     hex.EncodeToString(digest[:]),
	})
	if err != nil {
		return fmt.Errorf("pipeline: encoding container header: %w", err)
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(hdr)))
	for _, chunk := range [][]byte{[]byte(containerMagic), lenBuf[:], hdr, payload} {
		if _, err := w.Write(chunk); err != nil {
			return fmt.Errorf("pipeline: writing container: %w", err)
		}
	}
	return nil
}

// gzipJSON is the payload codec of checkpoints: it gzips the JSON that
// encode writes.
func gzipJSON(what string, encode func(io.Writer) error) ([]byte, error) {
	var body bytes.Buffer
	gz := gzip.NewWriter(&body)
	if err := encode(gz); err != nil {
		return nil, fmt.Errorf("pipeline: encoding %s: %w", what, err)
	}
	if err := gz.Close(); err != nil {
		return nil, fmt.Errorf("pipeline: compressing %s: %w", what, err)
	}
	return body.Bytes(), nil
}

// gunzipJSON decodes a payload written by gzipJSON. Every failure wraps
// ErrCorrupt; the caller prefixes the error with its context.
func gunzipJSON[T any](payload []byte, what string, decode func(io.Reader) (T, error)) (T, error) {
	var zero T
	gz, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return zero, fmt.Errorf("opening %s payload: %w: %w", what, ErrCorrupt, err)
	}
	defer gz.Close()
	v, err := decode(gz)
	if err != nil {
		return zero, fmt.Errorf("decoding %s: %w: %w", what, ErrCorrupt, err)
	}
	return v, nil
}

// BundleDigest parses the format-2 container envelope in b and returns
// the hex SHA-256 payload digest from its header, after verifying that
// the digest matches the payload bytes, the container kind is
// "bundle", and nothing trails the payload. This digest is the content
// address a bundle is stored and fetched under (internal/storage): two
// byte-identical fitted models share one digest, and a fetched blob
// whose recomputed digest disagrees is corruption, not a model.
//
// The gzip payload itself is NOT decompressed or decoded — digest
// extraction must stay cheap enough to run on every registry publish
// and fetch. Use LoadBundle for full validation.
func BundleDigest(b []byte) (string, error) {
	_, hdr, err := parseContainer(b, kindBundle)
	if err != nil {
		return "", err
	}
	return hdr.SHA256, nil
}

// readSource reads r to EOF. A reader that knows how many bytes it
// holds (*bytes.Reader, *bytes.Buffer, *strings.Reader) is read into
// one buffer of exactly that size; any other grows with what it
// yields. Either way no header claim sizes the allocation.
func readSource(r io.Reader) ([]byte, error) {
	var (
		b   []byte
		err error
	)
	if l, ok := r.(interface{ Len() int }); ok {
		b = make([]byte, l.Len())
		_, err = io.ReadFull(r, b)
	} else {
		b, err = io.ReadAll(r)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: reading container: %w: %w", ErrCorrupt, err)
	}
	return b, nil
}

// parseContainer parses b as exactly one container of the wanted kind
// — magic, then the format-2 envelope — verifies the digest, and
// returns the payload (a sub-slice of b) with the header. Every length
// is checked against the bytes b holds before it is trusted.
func parseContainer(b []byte, kind string) ([]byte, containerHeader, error) {
	var hdr containerHeader
	if len(b) < len(containerMagic) {
		return nil, hdr, fmt.Errorf("pipeline: %s magic missing: %w: %w", kind, ErrCorrupt, io.ErrUnexpectedEOF)
	}
	if string(b[:len(containerMagic)]) != containerMagic {
		return nil, hdr, fmt.Errorf("pipeline: not a %s container: %w", kind, ErrCorrupt)
	}
	b = b[len(containerMagic):]
	if len(b) < 4 {
		return nil, hdr, fmt.Errorf("pipeline: container header length missing: %w: %w", ErrCorrupt, io.ErrUnexpectedEOF)
	}
	hdrLen := binary.BigEndian.Uint32(b)
	b = b[4:]
	if hdrLen == 0 || hdrLen > maxHeaderLen {
		return nil, hdr, fmt.Errorf("pipeline: container header length %d implausible: %w", hdrLen, ErrCorrupt)
	}
	if int(hdrLen) > len(b) {
		return nil, hdr, fmt.Errorf("pipeline: container header truncated: %w: %w", ErrCorrupt, io.ErrUnexpectedEOF)
	}
	if err := json.Unmarshal(b[:hdrLen], &hdr); err != nil {
		return nil, hdr, fmt.Errorf("pipeline: container header unparseable: %w: %w", ErrCorrupt, err)
	}
	b = b[hdrLen:]
	if hdr.Format != containerFormat {
		return nil, hdr, fmt.Errorf("pipeline: container format %d, this build reads %d: %w",
			hdr.Format, containerFormat, ErrVersion)
	}
	if hdr.Kind != kind {
		return nil, hdr, fmt.Errorf("pipeline: container holds a %q, want a %q: %w", hdr.Kind, kind, ErrKind)
	}
	if hdr.PayloadLen < 0 {
		return nil, hdr, fmt.Errorf("pipeline: payload length %d implausible: %w", hdr.PayloadLen, ErrCorrupt)
	}
	if hdr.PayloadLen > int64(len(b)) {
		return nil, hdr, fmt.Errorf("pipeline: payload truncated: %d of %d bytes: %w: %w",
			len(b), hdr.PayloadLen, ErrCorrupt, io.ErrUnexpectedEOF)
	}
	// A container is exactly one envelope; bytes past the declared
	// payload mean the file was overwritten, concatenated, or the
	// header lies — none of which should load silently.
	if extra := int64(len(b)) - hdr.PayloadLen; extra != 0 {
		return nil, hdr, fmt.Errorf("pipeline: %d trailing bytes after payload: %w", extra, ErrCorrupt)
	}
	digest := sha256.Sum256(b)
	want, err := hex.DecodeString(hdr.SHA256)
	if err != nil || len(want) != sha256.Size {
		return nil, hdr, fmt.Errorf("pipeline: container digest unparseable: %w", ErrCorrupt)
	}
	if !bytes.Equal(digest[:], want) {
		return nil, hdr, fmt.Errorf("pipeline: payload digest mismatch (bit flip or torn write): %w", ErrCorrupt)
	}
	return b, hdr, nil
}
