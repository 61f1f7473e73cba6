package pipeline

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// SaveBundleFile persists the bundle to path crash-safely: the bytes go
// to a temp file in the same directory, are fsynced, and only then
// atomically renamed over the destination. A crash at any point leaves
// either the old file or the new one — never a torn hybrid.
func (o *Output) SaveBundleFile(path string) error {
	return AtomicWriteFile(path, func(w *bufio.Writer) error {
		return o.SaveBundle(w)
	})
}

// LoadBundleFile reads path whole and loads it like LoadBundle.
func LoadBundleFile(path string) (*Output, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: opening bundle file: %w", err)
	}
	out, err := loadBundle(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// tempSuffix marks this package's atomic-write temp files:
// <base>.tmp-<random>. The suffix is what the stale sweep matches on.
const tempSuffix = ".tmp-"

// staleTempAge is how old a leftover temp file must be before the
// sweep reclaims it. The age gate keeps a sweep from deleting a temp
// that a concurrent writer to the same path is still filling.
const staleTempAge = 10 * time.Minute

// AtomicWriteFile streams write's output into a temp file next to
// path, fsyncs it, renames it into place, and fsyncs the directory so
// the rename itself is durable. The temp file is removed on every
// in-process failure (encode error, flush, fsync, chmod, rename), and
// each call also sweeps temp files stranded by callers that died
// between creating a temp and cleaning it up — a crash or kill -9
// leaves a .tmp-* behind that no defer can reclaim, so the next
// successful writer reclaims it instead.
func AtomicWriteFile(path string, write func(*bufio.Writer) error) error {
	dir := filepath.Dir(path)
	base := filepath.Base(path)
	sweepStaleTemps(dir, base)

	tmp, err := os.CreateTemp(dir, base+tempSuffix+"*")
	if err != nil {
		return fmt.Errorf("pipeline: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	// Belt and braces: the error paths below remove the temp
	// explicitly; this defer covers a panicking write callback. Once
	// the rename lands, tmpName no longer exists and the Remove is a
	// harmless ENOENT.
	defer os.Remove(tmpName)

	fail := func(err error) error {
		tmp.Close()
		if rmErr := os.Remove(tmpName); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
			return fmt.Errorf("%w (and removing temp %s: %v)", err, tmpName, rmErr)
		}
		return err
	}

	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("pipeline: writing %s: %w", tmpName, err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("pipeline: fsync %s: %w", tmpName, err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("pipeline: closing %s: %w", tmpName, err))
	}
	// CreateTemp makes 0600; these are shareable artifacts, not secrets.
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return fail(fmt.Errorf("pipeline: chmod %s: %w", tmpName, err))
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fail(fmt.Errorf("pipeline: renaming into place: %w", err))
	}
	// Make the rename durable: fsync the containing directory. Some
	// filesystems don't support fsync on directories; that's not fatal.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// sweepStaleTemps removes <base>.tmp-* leftovers in dir older than
// staleTempAge: the droppings of writers that crashed mid-write. Young
// temps are spared (they may belong to a live concurrent writer), and
// every error is ignored — the sweep is opportunistic hygiene, never a
// reason to fail the write that triggered it.
func sweepStaleTemps(dir, base string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-staleTempAge)
	prefix := base + tempSuffix
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		os.Remove(filepath.Join(dir, e.Name()))
	}
}
