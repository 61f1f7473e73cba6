package pipeline

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestIngestWatermarkRoundTrip: a saved watermark reads back with its
// fit time, and a save below it changes nothing on disk.
func TestIngestWatermarkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := SaveIngestWatermark(dir, 7, 100); err != nil {
		t.Fatal(err)
	}
	if seq, at := LoadIngestState(dir); seq != 7 || at != 100 {
		t.Fatalf("LoadIngestState = (%d, %d), want (7, 100)", seq, at)
	}
	path := filepath.Join(dir, IngestWatermarkFile)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveIngestWatermark(dir, 5, 200); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Fatal("a save below the watermark rewrote the file")
	}
}

// TestLoadIngestWatermarkMissing: a directory without a watermark file
// reports fs.ErrNotExist, and LoadIngestState reads it as zero.
func TestLoadIngestWatermarkMissing(t *testing.T) {
	dir := t.TempDir()
	if _, err := loadIngestWatermark(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want fs.ErrNotExist for a directory without a watermark, got %v", err)
	}
	if seq, at := LoadIngestState(dir); seq != 0 || at != 0 {
		t.Fatalf("missing file read as (%d, %d), want zeros", seq, at)
	}
}

// TestLoadIngestStateCorrupt: a damaged watermark file is rejected as
// ErrCorrupt and reads as zero, the conservative answer.
func TestLoadIngestStateCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := SaveIngestWatermark(dir, 9, 100); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, IngestWatermarkFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x01
	if _, err := readIngestWatermark(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt on a flipped watermark byte, got %v", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if seq, at := LoadIngestState(dir); seq != 0 || at != 0 {
		t.Fatalf("damaged file read as (%d, %d), want zeros", seq, at)
	}
}
