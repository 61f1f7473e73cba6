// Package storage persists fitted model bundles behind a pluggable
// blob-store interface and layers a generation registry on top of it —
// the machinery that lets a fleet of textureserver replicas follow one
// published model lineage instead of each owning a private file.
//
// The layering, bottom to top:
//
//   - BundleStore: a dumb flat blob store (Put/Get/Stat/List). Two
//     backends ship: FSStore (local directory, atomic temp+fsync+rename
//     writes reusing the pipeline's durability idiom) and KVStore (an
//     in-process map with injectable latency/error faults — the test
//     double every degraded-mode scenario is built on).
//   - Robust: the robustness envelope wrapped around any backend:
//     per-op timeouts, jittered retry with backoff, a circuit breaker,
//     and storage_ops_total / storage_op_seconds metrics. Every error
//     out of Robust is typed: ErrNotFound, ErrDigestMismatch, or
//     ErrStoreUnavailable.
//   - Registry: generations of content-addressed bundles (the address
//     is the RHEODUR1 container's SHA-256 payload digest) plus a JSON
//     manifest — itself digest-guarded — recording which generation is
//     promoted. Publish/Promote/Pin on the write side;
//     Promoted/Fetch with digest verification on the read side.
package storage

import (
	"context"
	"errors"
)

// Typed errors. Every failure leaving this package wraps one of these,
// so callers can route on the class — "ask again later"
// (ErrStoreUnavailable), "that object does not exist" (ErrNotFound),
// "the bytes came back wrong" (ErrDigestMismatch) — without parsing
// strings.
var (
	// ErrNotFound marks a key with no object behind it. Not a backend
	// fault: it is never retried and never trips the circuit breaker.
	ErrNotFound = errors.New("storage: object not found")
	// ErrStoreUnavailable marks a backend that cannot currently answer:
	// transport errors, per-op timeouts, and an open circuit breaker
	// all collapse into it.
	ErrStoreUnavailable = errors.New("storage: backend unavailable")
	// ErrDigestMismatch marks content that does not hash to the digest
	// it was addressed by — a torn write, bit rot, or a mislabelled
	// object. Serving code must refuse such bytes.
	ErrDigestMismatch = errors.New("storage: content digest mismatch")
)

// ObjectInfo describes a stored object without fetching its bytes.
type ObjectInfo struct {
	Key  string
	Size int64
}

// BundleStore is the pluggable persistence surface: a flat blob store
// keyed by slash-separated names. Implementations must be safe for
// concurrent use and must make Put atomic — a reader never observes a
// half-written object under a key.
//
// Keys are chosen by the Registry layer; backends treat them as opaque
// (FSStore maps them to relative paths, so "..", absolute paths and
// empty segments are rejected).
type BundleStore interface {
	// Put stores data under key, replacing any existing object.
	Put(ctx context.Context, key string, data []byte) error
	// Get returns the object's bytes, or an error wrapping ErrNotFound.
	Get(ctx context.Context, key string) ([]byte, error)
	// Stat returns the object's metadata, or an error wrapping
	// ErrNotFound — a cheap existence probe before a large Get.
	Stat(ctx context.Context, key string) (ObjectInfo, error)
	// List returns the keys under prefix, in unspecified order.
	List(ctx context.Context, prefix string) ([]string, error)
	// Name identifies the backend in metrics and logs ("fs", "kv").
	Name() string
}
