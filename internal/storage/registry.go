package storage

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/pipeline"
)

// ManifestKey is where the registry manifest lives inside the store.
const ManifestKey = "registry/manifest.json"

// manifestSchemaVersion guards the manifest document layout.
const manifestSchemaVersion = 1

// ErrManifestCorrupt marks a registry manifest whose envelope digest
// does not match its body, or whose JSON cannot be parsed — the
// registry equivalent of pipeline.ErrCorrupt. A replica seeing it
// keeps serving its last-good model and reports degraded.
var ErrManifestCorrupt = errors.New("storage: registry manifest corrupt")

// ErrNoPromoted marks a registry that exists but has no promoted
// generation yet — a fleet waiting for its first rollout, not a fault.
var ErrNoPromoted = errors.New("storage: no promoted generation")

// BundleKey returns the store key a bundle with this content digest
// lives under. Content addressing makes published blobs immutable:
// a digest is written once and never rewritten, so a fetch racing a
// promote can never observe a half-replaced bundle.
func BundleKey(digest string) string { return "bundles/" + digest + ".bundle" }

// Generation is one published model in the registry's lineage.
type Generation struct {
	// ID is the monotonically increasing generation number.
	ID int64 `json:"id"`
	// Digest is the bundle's content address — the RHEODUR1 container's
	// hex SHA-256 payload digest.
	Digest string `json:"digest"`
	// Size is the bundle blob's size in bytes.
	Size int64 `json:"size"`
	// Note is free-form operator context ("nightly refit 2026-08-07").
	Note string `json:"note,omitempty"`
	// CreatedUnix is the publish time (Unix seconds).
	CreatedUnix int64 `json:"created_unix"`
	// Pinned is read from manifests of earlier builds, which could pin
	// a generation. Nothing sets it now; a manifest rewrite keeps it.
	Pinned bool `json:"pinned,omitempty"`
}

// Manifest is the registry's source of truth: the generation lineage
// and which generation the fleet should serve.
type Manifest struct {
	Schema int `json:"schema"`
	// Promoted is the generation ID replicas should converge to;
	// 0 means nothing has been promoted yet.
	Promoted int64 `json:"promoted"`
	// Previous is the generation promoted before the current one;
	// promoting it again is the rollback. 0 when there is none.
	Previous    int64        `json:"previous,omitempty"`
	Generations []Generation `json:"generations"`
}

// generation finds a lineage entry by ID.
func (m *Manifest) generation(id int64) (*Generation, bool) {
	for i := range m.Generations {
		if m.Generations[i].ID == id {
			return &m.Generations[i], true
		}
	}
	return nil, false
}

// manifestEnvelope is the on-store form: the manifest JSON plus its
// own SHA-256, so a torn or bit-flipped manifest is detected before a
// single field is trusted.
type manifestEnvelope struct {
	Schema   int             `json:"schema"`
	SHA256   string          `json:"sha256"`
	Manifest json.RawMessage `json:"manifest"`
}

// EncodeManifest renders the digest-guarded envelope bytes.
func EncodeManifest(m *Manifest) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("storage: encoding manifest: %w", err)
	}
	sum := sha256.Sum256(body)
	env, err := json.Marshal(manifestEnvelope{
		Schema:   manifestSchemaVersion,
		SHA256:   hex.EncodeToString(sum[:]),
		Manifest: body,
	})
	if err != nil {
		return nil, fmt.Errorf("storage: encoding manifest envelope: %w", err)
	}
	return env, nil
}

// DecodeManifest parses and integrity-checks envelope bytes. Every
// rejection wraps ErrManifestCorrupt except a future schema, which
// wraps pipeline.ErrVersion — "damaged" and "too new" call for
// different operator responses.
func DecodeManifest(b []byte) (*Manifest, error) {
	var env manifestEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("storage: manifest envelope unparseable: %w: %w", ErrManifestCorrupt, err)
	}
	if env.Schema > manifestSchemaVersion || env.Schema < 1 {
		return nil, fmt.Errorf("storage: manifest schema %d, this build reads ≤ %d: %w",
			env.Schema, manifestSchemaVersion, pipeline.ErrVersion)
	}
	want, err := hex.DecodeString(env.SHA256)
	if err != nil || len(want) != sha256.Size {
		return nil, fmt.Errorf("storage: manifest digest unparseable: %w", ErrManifestCorrupt)
	}
	sum := sha256.Sum256(env.Manifest)
	if !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("storage: manifest digest mismatch: %w", ErrManifestCorrupt)
	}
	var m Manifest
	if err := json.Unmarshal(env.Manifest, &m); err != nil {
		return nil, fmt.Errorf("storage: manifest body unparseable: %w: %w", ErrManifestCorrupt, err)
	}
	if m.Schema > manifestSchemaVersion || m.Schema < 1 {
		return nil, fmt.Errorf("storage: manifest body schema %d, this build reads ≤ %d: %w",
			m.Schema, manifestSchemaVersion, pipeline.ErrVersion)
	}
	for _, g := range m.Generations {
		if g.ID <= 0 || g.Digest == "" {
			return nil, fmt.Errorf("storage: manifest generation %d malformed: %w", g.ID, ErrManifestCorrupt)
		}
	}
	if m.Promoted != 0 {
		if _, ok := m.generation(m.Promoted); !ok {
			return nil, fmt.Errorf("storage: manifest promotes unknown generation %d: %w",
				m.Promoted, ErrManifestCorrupt)
		}
	}
	return &m, nil
}

// Registry tracks generations of content-addressed bundles in a
// BundleStore. Reads are safe from any number of replicas; the write
// side (Publish/Promote) assumes a single operator or
// pipeline at a time — the manifest is read-modify-write, and this
// registry deliberately has no distributed lock.
//
// Wrap the store in Robust before handing it over: the registry
// assumes typed errors and adds no retries of its own.
type Registry struct {
	store BundleStore
	// Clock is a test hook; time.Now when nil.
	Clock func() time.Time
}

// NewRegistry builds a registry over store.
func NewRegistry(store BundleStore) *Registry { return &Registry{store: store} }

func (r *Registry) now() time.Time {
	if r.Clock != nil {
		return r.Clock()
	}
	return time.Now()
}

// Manifest loads the current manifest. A registry nobody has published
// to yet returns an empty manifest, not an error.
func (r *Registry) Manifest(ctx context.Context) (*Manifest, error) {
	b, err := r.store.Get(ctx, ManifestKey)
	if errors.Is(err, ErrNotFound) {
		return &Manifest{Schema: manifestSchemaVersion}, nil
	}
	if err != nil {
		return nil, err
	}
	return DecodeManifest(b)
}

func (r *Registry) saveManifest(ctx context.Context, m *Manifest) error {
	m.Schema = manifestSchemaVersion
	b, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	return r.store.Put(ctx, ManifestKey, b)
}

// Publish stores bundle under its content address and appends a new
// generation to the lineage — without promoting it; rollout is a
// separate, deliberate step. Publishing bytes whose digest is already
// in the lineage is idempotent and returns the existing generation:
// content addressing makes "same model twice" a no-op, not a
// duplicate. The bundle bytes must be a valid RHEODUR1 bundle
// container; anything else is rejected before touching the store.
func (r *Registry) Publish(ctx context.Context, bundle []byte, note string) (Generation, error) {
	digest, err := pipeline.BundleDigest(bundle)
	if err != nil {
		return Generation{}, fmt.Errorf("storage: publish: %w", err)
	}
	m, err := r.Manifest(ctx)
	if err != nil {
		return Generation{}, err
	}
	for _, g := range m.Generations {
		if g.Digest == digest {
			return g, nil
		}
	}
	if err := r.store.Put(ctx, BundleKey(digest), bundle); err != nil {
		return Generation{}, err
	}
	var maxID int64
	for _, g := range m.Generations {
		if g.ID > maxID {
			maxID = g.ID
		}
	}
	gen := Generation{
		ID:          maxID + 1,
		Digest:      digest,
		Size:        int64(len(bundle)),
		Note:        note,
		CreatedUnix: r.now().Unix(),
	}
	m.Generations = append(m.Generations, gen)
	if err := r.saveManifest(ctx, m); err != nil {
		return Generation{}, err
	}
	return gen, nil
}

// Promote makes generation id the one the fleet converges to. The
// bundle must exist in the store — a manifest must never point readers
// at bytes that are not there.
func (r *Registry) Promote(ctx context.Context, id int64) error {
	m, err := r.Manifest(ctx)
	if err != nil {
		return err
	}
	g, ok := m.generation(id)
	if !ok {
		return fmt.Errorf("storage: promote generation %d: %w", id, ErrNotFound)
	}
	if _, err := r.store.Stat(ctx, BundleKey(g.Digest)); err != nil {
		return fmt.Errorf("storage: promote generation %d: bundle blob: %w", id, err)
	}
	if m.Promoted == id {
		// Re-promotion is a no-op, and deliberately skips the manifest
		// write: a refit controller replaying its promote step after a
		// crash must converge without churning the manifest blob (every
		// write is a window a concurrent reader could see torn on a
		// non-atomic store).
		return nil
	}
	m.Previous = m.Promoted
	m.Promoted = id
	return r.saveManifest(ctx, m)
}

// Generation returns the lineage entry for id.
func (r *Registry) Generation(ctx context.Context, id int64) (Generation, error) {
	m, err := r.Manifest(ctx)
	if err != nil {
		return Generation{}, err
	}
	g, ok := m.generation(id)
	if !ok {
		return Generation{}, fmt.Errorf("storage: generation %d: %w", id, ErrNotFound)
	}
	return *g, nil
}

// Promoted returns the currently promoted generation, or ErrNoPromoted
// when the registry has never had a rollout.
func (r *Registry) Promoted(ctx context.Context) (Generation, error) {
	m, err := r.Manifest(ctx)
	if err != nil {
		return Generation{}, err
	}
	if m.Promoted == 0 {
		return Generation{}, ErrNoPromoted
	}
	g, ok := m.generation(m.Promoted)
	if !ok {
		// DecodeManifest rejects this shape; reaching it means the
		// in-memory manifest was mutated. Treat as corruption.
		return Generation{}, fmt.Errorf("storage: promoted generation %d missing from lineage: %w",
			m.Promoted, ErrManifestCorrupt)
	}
	return *g, nil
}

// Fetch retrieves gen's bundle bytes and verifies them against the
// generation's content address — the container parses and its payload
// hashes to the digest the blob was published under. Bytes that fail
// verification never reach the caller; the error wraps
// ErrDigestMismatch so serving code can refuse the swap and keep the
// model it has.
func (r *Registry) Fetch(ctx context.Context, gen Generation) ([]byte, error) {
	b, err := r.store.Get(ctx, BundleKey(gen.Digest))
	if err != nil {
		return nil, err
	}
	digest, err := pipeline.BundleDigest(b)
	if err != nil {
		return nil, fmt.Errorf("storage: fetched bundle for generation %d unreadable: %w: %w",
			gen.ID, ErrDigestMismatch, err)
	}
	if digest != gen.Digest {
		return nil, fmt.Errorf("storage: generation %d: stored digest %.12s, content hashes to %.12s: %w",
			gen.ID, gen.Digest, digest, ErrDigestMismatch)
	}
	return b, nil
}
