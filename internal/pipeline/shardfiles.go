// Durable shard-fit state: the manifest that makes a sharded fit
// resumable and the per-shard statistics files it points at. Both ride
// the format-2 RHEODUR1 container (see container.go), so a torn write,
// bit flip, or wrong-kind file is detected before any byte is trusted.
package pipeline

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
)

// ShardManifestFile is the fixed name of the shard manifest inside a
// shard directory. One file, atomically replaced after every state
// change: a resumed orchestrator has exactly one source of truth.
const ShardManifestFile = "manifest.shards"

const (
	shardManifestSchemaVersion = 1
	shardStatsSchemaVersion    = 1
)

// Shard entry states. A shard is pending until its statistics file is
// durably on disk; there is deliberately no "running" state — a crash
// mid-fit leaves the entry pending and the next run refits it.
const (
	ShardPending = "pending"
	ShardFitted  = "fitted"
)

// ShardIdentity pins everything that determines a sharded fit's
// result. A manifest whose identity does not match the current run
// byte-for-byte describes a different fit; resuming from it would
// silently merge statistics from the wrong model, so the orchestrator
// discards it and refits everything.
type ShardIdentity struct {
	NumDocs        int     `json:"num_docs"`
	V              int     `json:"v"`
	K              int     `json:"k"`
	Iterations     int     `json:"iterations"`
	BurnIn         int     `json:"burn_in"`
	Seed           uint64  `json:"seed"`
	ShardCount     int     `json:"shard_count"`
	Collapsed      bool    `json:"collapsed"`
	Workers        int     `json:"workers"`
	Alpha          float64 `json:"alpha"`
	Gamma          float64 `json:"gamma"`
	UseEmulsion    bool    `json:"use_emulsion"`
	EmulsionWeight float64 `json:"emulsion_weight"`
}

// ShardEntry is one shard's row in the manifest.
type ShardEntry struct {
	// Lo, Hi is the shard's global document range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Seed is the shard chain's seed, derived deterministically from the
	// run seed and the range so a retried or resumed shard replays the
	// same chain.
	Seed uint64 `json:"seed"`
	// State is ShardPending or ShardFitted.
	State string `json:"state"`
	// File names the shard's statistics file inside the shard directory
	// (fitted shards only).
	File string `json:"file,omitempty"`
	// Digest is the hex SHA-256 of the statistics payload, cross-checked
	// against the file's own header on load (fitted shards only).
	Digest string `json:"digest,omitempty"`
	// Resharded marks a shard created by splitting a straggler.
	Resharded bool `json:"resharded,omitempty"`
}

// ShardManifest records the progress of one sharded fit: which shards
// exist, which are durably fitted, and whether the merge completed.
type ShardManifest struct {
	Identity ShardIdentity `json:"identity"`
	Shards   []ShardEntry  `json:"shards"`
	// Merged is set once the merged model was assembled successfully —
	// a resumed run with Merged still false re-merges from the fitted
	// shard files.
	Merged bool `json:"merged"`
	// IngestWatermark is the highest durable-ingest-log sequence number
	// whose record is reflected in the fitted model ("appended-since-fit"
	// watermark). It survives identity changes: each re-fit grows the
	// corpus, so the identity never matches across fits, but the
	// watermark must — it is what tells the refit controller how many
	// accepted records the serving model has not yet learned from.
	// Omitted as zero for manifests that predate online ingestion.
	IngestWatermark uint64 `json:"ingest_watermark,omitempty"`
	// IngestLastFitUnix is when the watermark last advanced — the wall
	// time of the promotion that absorbed those records. Persisted so a
	// restarted server computes model staleness from the last fit, not
	// from the oldest record in the whole ingest log (which the fit
	// already covered). Zero for manifests that predate it.
	IngestLastFitUnix int64 `json:"ingest_last_fit_unix,omitempty"`
}

// Validate checks the manifest's internal consistency: shards sorted
// by Lo, contiguous, covering exactly [0, NumDocs), with legal states
// and a file+digest on every fitted entry. Damaged manifests are
// rejected on load so a resumed orchestrator never trusts them.
func (m *ShardManifest) Validate() error {
	if len(m.Shards) == 0 {
		// A watermark-only manifest — zero identity, no shard rows — is
		// how an unsharded deployment persists its ingest watermark; a
		// zero-everything manifest is still corruption.
		if m.IngestWatermark > 0 && m.Identity == (ShardIdentity{}) {
			return nil
		}
		return fmt.Errorf("pipeline: shard manifest has no shards: %w", ErrCorrupt)
	}
	if !sort.SliceIsSorted(m.Shards, func(i, j int) bool { return m.Shards[i].Lo < m.Shards[j].Lo }) {
		return fmt.Errorf("pipeline: shard manifest entries out of order: %w", ErrCorrupt)
	}
	next := 0
	for i, sh := range m.Shards {
		if sh.Lo != next || sh.Hi <= sh.Lo {
			return fmt.Errorf("pipeline: shard %d covers [%d,%d), want contiguous from %d: %w",
				i, sh.Lo, sh.Hi, next, ErrCorrupt)
		}
		next = sh.Hi
		switch sh.State {
		case ShardPending:
		case ShardFitted:
			if sh.File == "" || sh.Digest == "" {
				return fmt.Errorf("pipeline: fitted shard %d lacks file or digest: %w", i, ErrCorrupt)
			}
		default:
			return fmt.Errorf("pipeline: shard %d has unknown state %q: %w", i, sh.State, ErrCorrupt)
		}
		if sh.File != "" && filepath.Base(sh.File) != sh.File {
			return fmt.Errorf("pipeline: shard %d file %q escapes the shard directory: %w", i, sh.File, ErrCorrupt)
		}
	}
	if next != m.Identity.NumDocs {
		return fmt.Errorf("pipeline: shards cover [0,%d) but the corpus has %d documents: %w",
			next, m.Identity.NumDocs, ErrCorrupt)
	}
	return nil
}

// SaveShardManifest atomically replaces dir/manifest.shards. The
// directory is created if absent.
func SaveShardManifest(dir string, m *ShardManifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("pipeline: shard dir: %w", err)
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("pipeline: encoding shard manifest: %w", err)
	}
	return AtomicWriteFile(filepath.Join(dir, ShardManifestFile), func(w *bufio.Writer) error {
		return writeContainer(w, kindShardManifest, shardManifestSchemaVersion, payload, nil)
	})
}

// LoadShardManifest reads dir/manifest.shards. A missing file returns
// an error satisfying errors.Is(err, fs.ErrNotExist) — the fresh-start
// signal; damaged files return wrapped ErrCorrupt/ErrVersion/ErrKind.
func LoadShardManifest(dir string) (*ShardManifest, error) {
	path := filepath.Join(dir, ShardManifestFile)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: opening shard manifest: %w", err)
	}
	m, err := readShardManifest(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// readShardManifest parses a shard-manifest container stream.
func readShardManifest(r io.Reader) (*ShardManifest, error) {
	payload, hdr, err := readContainer(r, kindShardManifest)
	if err != nil {
		return nil, err
	}
	if hdr.Schema > shardManifestSchemaVersion || hdr.Schema < 1 {
		return nil, fmt.Errorf("pipeline: shard manifest schema %d, this build reads ≤ %d: %w",
			hdr.Schema, shardManifestSchemaVersion, ErrVersion)
	}
	m := &ShardManifest{}
	if err := json.Unmarshal(payload, m); err != nil {
		return nil, fmt.Errorf("pipeline: decoding shard manifest: %w: %w", ErrCorrupt, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteShardStatsFile durably writes one shard's statistics to
// dir/name (crash-safe temp+rename) and returns the hex SHA-256 of the
// payload — the digest the manifest records and the loader verifies.
func WriteShardStatsFile(dir, name string, st *core.ShardStats) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("pipeline: shard dir: %w", err)
	}
	body, err := gzipJSON("shard stats", st.WriteJSON)
	if err != nil {
		return "", err
	}
	err = AtomicWriteFile(filepath.Join(dir, name), func(w *bufio.Writer) error {
		return writeContainer(w, kindShardStats, shardStatsSchemaVersion, body, nil)
	})
	if err != nil {
		return "", err
	}
	return payloadDigestHex(body), nil
}

// LoadIngestWatermark reads the appended-since-fit watermark from
// dir/manifest.shards. A missing or damaged manifest reads as zero —
// the conservative answer: every ingest-log record counts as unseen,
// and the next re-fit rewrites a clean manifest. Never an error,
// because the watermark is advisory (it sizes the refit trigger);
// correctness comes from the ingest log itself.
func LoadIngestWatermark(dir string) uint64 {
	seq, _ := LoadIngestState(dir)
	return seq
}

// LoadIngestState reads the appended-since-fit watermark and the wall
// time of the fit that set it from dir/manifest.shards, with the same
// zero-on-missing posture as LoadIngestWatermark.
func LoadIngestState(dir string) (seq uint64, lastFitUnix int64) {
	m, err := LoadShardManifest(dir)
	if err != nil {
		return 0, 0
	}
	return m.IngestWatermark, m.IngestLastFitUnix
}

// SaveIngestWatermark durably records seq as the appended-since-fit
// watermark in dir/manifest.shards, stamped with fitUnix (the wall
// time of the promotion advancing it), preserving whatever shard state
// the manifest already holds (read-modify-write under the atomic
// replace). A missing or unreadable manifest gets a fresh
// watermark-only one. Regressions are refused: the watermark is
// monotone, and a re-fit that raced an older save must not roll it
// backwards and re-trigger itself.
func SaveIngestWatermark(dir string, seq uint64, fitUnix int64) error {
	m, err := LoadShardManifest(dir)
	if err != nil {
		m = &ShardManifest{}
	}
	if seq <= m.IngestWatermark {
		return nil
	}
	m.IngestWatermark = seq
	if fitUnix > m.IngestLastFitUnix {
		m.IngestLastFitUnix = fitUnix
	}
	return SaveShardManifest(dir, m)
}

// payloadDigestHex is the container's payload digest, recomputed for
// the manifest record.
func payloadDigestHex(payload []byte) string {
	d := sha256.Sum256(payload)
	return hex.EncodeToString(d[:])
}

// LoadShardStatsFile reads dir/name, verifies the container (magic,
// kind, schema, internal digest) and — when wantDigest is non-empty —
// that the payload digest matches the manifest's record, then restores
// the statistics under the supplied priors. Any mismatch wraps
// ErrCorrupt: the orchestrator treats it as "refit this shard", never
// as data.
func LoadShardStatsFile(dir, name, wantDigest string, gelPrior, emuPrior *stats.NormalWishart) (*core.ShardStats, error) {
	path := filepath.Join(dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: opening shard stats: %w", err)
	}
	payload, hdr, err := parseContainer(b, kindShardStats)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if hdr.Schema > shardStatsSchemaVersion || hdr.Schema < 1 {
		return nil, fmt.Errorf("%s: shard stats schema %d, this build reads ≤ %d: %w",
			path, hdr.Schema, shardStatsSchemaVersion, ErrVersion)
	}
	if wantDigest != "" && hdr.SHA256 != wantDigest {
		return nil, fmt.Errorf("%s: shard stats digest %.12s…, manifest expects %.12s…: %w",
			path, hdr.SHA256, wantDigest, ErrCorrupt)
	}
	st, err := gunzipJSON(payload, "shard stats", func(r io.Reader) (*core.ShardStats, error) {
		return core.ReadShardStatsJSON(r, gelPrior, emuPrior)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}
