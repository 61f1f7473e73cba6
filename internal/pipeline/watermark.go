// The ingest watermark: the highest ingest-log sequence number whose
// record the fitted model reflects. It lives in its own small
// RHEODUR1 container (see container.go) in the ingest log's directory.
package pipeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// IngestWatermarkFile is the watermark's file name inside the ingest
// log's directory. The log reads only its wal-*.seg segments, so the
// file is safe there.
const IngestWatermarkFile = "ingest.watermark"

const watermarkSchemaVersion = 1

// ingestWatermark is the watermark file's payload.
type ingestWatermark struct {
	// Seq is the "appended-since-fit" watermark: the refit controller
	// counts the accepted records past it.
	Seq uint64 `json:"ingest_watermark"`
	// LastFitUnix is when Seq last advanced: the wall time of the
	// promotion that absorbed those records. A restarted server
	// measures model staleness from it, not from the oldest record in
	// the whole ingest log, which that fit already covered.
	LastFitUnix int64 `json:"ingest_last_fit_unix"`
}

// LoadIngestState reads the watermark and the wall time of the fit
// that set it from dir/ingest.watermark. A missing or damaged file
// reads as zero — the conservative answer: every ingest-log record
// counts as unseen, and the next re-fit writes a clean file. Never an
// error, because the watermark is advisory (it sizes the refit
// trigger); correctness comes from the ingest log itself.
func LoadIngestState(dir string) (seq uint64, lastFitUnix int64) {
	wm, _ := loadIngestWatermark(dir) // zero on any error
	return wm.Seq, wm.LastFitUnix
}

// loadIngestWatermark reads dir/ingest.watermark; on any error the
// watermark it returns is zero.
func loadIngestWatermark(dir string) (ingestWatermark, error) {
	b, err := os.ReadFile(filepath.Join(dir, IngestWatermarkFile))
	if err != nil {
		return ingestWatermark{}, err
	}
	return readIngestWatermark(b)
}

// readIngestWatermark parses a watermark container; every rejection
// wraps ErrCorrupt, ErrVersion or ErrKind.
func readIngestWatermark(b []byte) (ingestWatermark, error) {
	payload, hdr, err := parseContainer(b, kindIngestWatermark)
	if err != nil {
		return ingestWatermark{}, err
	}
	if hdr.Schema != watermarkSchemaVersion {
		return ingestWatermark{}, fmt.Errorf("pipeline: watermark schema %d, this build reads %d: %w",
			hdr.Schema, watermarkSchemaVersion, ErrVersion)
	}
	var wm ingestWatermark
	if err := json.Unmarshal(payload, &wm); err != nil {
		return ingestWatermark{}, fmt.Errorf("pipeline: decoding watermark: %w: %w", ErrCorrupt, err)
	}
	return wm, nil
}

// SaveIngestWatermark durably records seq as the watermark in
// dir/ingest.watermark, stamped with fitUnix (the wall time of the
// promotion advancing it), crash-safely via temp file + fsync + atomic
// rename. Regressions are refused: the watermark is monotone, and a
// re-fit that raced an older save must not roll it backwards and
// re-trigger itself.
func SaveIngestWatermark(dir string, seq uint64, fitUnix int64) error {
	wm, _ := loadIngestWatermark(dir) // missing or damaged reads as zero, as in LoadIngestState
	if seq <= wm.Seq {
		return nil
	}
	wm.Seq = seq
	if fitUnix > wm.LastFitUnix {
		wm.LastFitUnix = fitUnix
	}
	payload, err := json.Marshal(wm)
	if err != nil {
		return fmt.Errorf("pipeline: encoding watermark: %w", err)
	}
	return AtomicWriteFile(filepath.Join(dir, IngestWatermarkFile), func(w *bufio.Writer) error {
		return writeContainer(w, kindIngestWatermark, watermarkSchemaVersion, payload, nil)
	})
}
