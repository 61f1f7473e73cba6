// Package ingest is the durable half of online corpus growth: a
// write-ahead log of accepted recipes, the appended-since-fit
// watermark, and the background re-fit controller that folds the log
// into a new promoted model generation.
//
// The WAL is a directory of append-only segments:
//
//	wal-00000001.seg
//	wal-00000002.seg
//	...
//
// Each segment opens with an envelope in the RHEODUR1 spirit
// (internal/pipeline/container.go):
//
//	offset 0  magic "RHEOWAL1" (8 bytes)
//	offset 8  header length H, uint32 big-endian
//	offset 12 header: H bytes of JSON {"format":1,"segment":N}
//
// followed by length-prefixed, digest-checked records:
//
//	uint32 BE payload length | payload | raw SHA-256 of payload (32 bytes)
//
// where the payload is one JSON walRecord carrying the sequence
// number, the canonical recipe hash, and the recipe document itself.
//
// Durability contract: Append returns only after the record's bytes
// are fsynced (group commit — concurrent appenders share one fsync),
// so an acknowledged record survives kill -9 at any instant. Recovery
// tolerates exactly one kind of damage without data loss: a torn tail
// on the LAST segment (the unacknowledged write that was in flight
// when the process died), which is truncated away. Damage anywhere
// else is corruption and refuses to load — silently dropping
// acknowledged records is the one failure this package exists to
// prevent.
package ingest

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
	"repro/internal/recipe"
)

const (
	walMagic        = "RHEOWAL1"
	walFormat       = 1
	walRecordV      = 1
	maxWALHeaderLen = 1 << 12
	// maxWALRecordLen bounds one record's payload; a recipe document
	// beyond this is garbage, not data (matches the lenient decoder's
	// posture on oversized records).
	maxWALRecordLen = 8 << 20
	// DefaultSegmentBytes is the rotation threshold: large enough that
	// rotation is rare, small enough that recovery scans and torn-tail
	// truncation touch bounded state.
	DefaultSegmentBytes = 4 << 20
)

// Typed failures, aliased to the pipeline's durable-format taxonomy so
// callers use one errors.Is vocabulary for every on-disk artifact.
var (
	// ErrCorrupt marks damage recovery must not repair silently:
	// bit flips or truncation anywhere but the final segment's tail.
	ErrCorrupt = pipeline.ErrCorrupt
	// ErrVersion marks a segment or record written by a newer build.
	ErrVersion = pipeline.ErrVersion
	// ErrTooLarge rejects an append whose encoded record would exceed
	// maxWALRecordLen. Refusing at append time is load-bearing: readFrame
	// treats an over-limit length as corruption, so a larger record, once
	// fsynced and acked, would be unreadable on recovery — an acked write
	// the log could never honor. The caller's fault, never the log's.
	ErrTooLarge = errors.New("ingest: recipe exceeds the WAL record limit")
)

// walSegmentHeader is the JSON between a segment's magic and its
// first record.
type walSegmentHeader struct {
	Format  int `json:"format"`
	Segment int `json:"segment"`
}

// walRecord is one appended recipe, as serialized into a record
// payload.
type walRecord struct {
	// V is the record schema version; records with V beyond this
	// build's walRecordV are refused with ErrVersion.
	V int `json:"v"`
	// Seq is the record's sequence number: dense, monotone, assigned at
	// append. LastSeq - watermark is therefore exactly the count of
	// accepted-but-unfitted records.
	Seq uint64 `json:"seq"`
	// Hash is the hex canonical recipe hash (recipe.CanonicalHash) —
	// the dedup key, shared with the serve-side annotation cache.
	Hash string `json:"hash"`
	// ReceivedUnix is the append wall time, feeding the age-based
	// refit trigger.
	ReceivedUnix int64 `json:"received_unix,omitempty"`
	// Recipe is the resolved recipe document, stored as the exact JSON
	// replayed into re-fits — byte-determinism of the refit stream
	// starts here.
	Recipe json.RawMessage `json:"recipe"`
}

// Ack is Append's receipt.
type Ack struct {
	// Seq is the record's sequence number — the existing record's for a
	// duplicate.
	Seq uint64 `json:"seq"`
	// Duplicate reports that an identical recipe (by canonical hash)
	// was already in the log; nothing new was written.
	Duplicate bool `json:"duplicate,omitempty"`
}

// Stats is a point-in-time WAL summary for /statusz and metrics.
type Stats struct {
	Segments   int    `json:"segments"`
	Bytes      int64  `json:"bytes"`
	Records    uint64 `json:"records"`
	LastSeq    uint64 `json:"last_seq"`
	OldestUnix int64  `json:"oldest_unix,omitempty"`
}

// Options configures Open.
type Options struct {
	// SegmentBytes is the rotation threshold; DefaultSegmentBytes when
	// zero.
	SegmentBytes int64
}

// WAL is the durable append log. All methods are safe for concurrent
// use.
type WAL struct {
	dir     string
	segMax  int64
	written atomic.Int64 // total bytes appended across all segments, headers included

	// mu orders appends and rotation: frame encode+write, the dedup
	// index, and the segment swap decision all happen under it.
	mu      sync.Mutex
	seg     *os.File // current segment (also guarded by syncMu for the swap)
	segNum  int
	segOff  int64 // bytes in the current segment
	nextSeq uint64
	index   map[[sha256.Size]byte]uint64 // canonical hash → seq
	records uint64
	oldest  int64 // ReceivedUnix of the oldest record past the watermark consumers track

	// syncMu orders fsync acknowledgement. Lock order is always
	// mu → syncMu; ack takes syncMu alone. synced is the high-water
	// written offset known durable; a waiter whose record sits below it
	// rides an fsync another appender already paid for.
	syncMu sync.Mutex
	synced int64

	now func() time.Time // test hook
}

// segName formats the fixed-width segment file name, so lexical order
// is numeric order.
func segName(n int) string { return fmt.Sprintf("wal-%08d.seg", n) }

// Open recovers the log in dir (created if absent): every segment is
// scanned, the dedup index and next sequence number rebuilt, and a
// torn tail on the final segment truncated away. Damage anywhere else
// fails with ErrCorrupt/ErrVersion rather than dropping acknowledged
// records.
func Open(dir string, opts Options) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: wal dir: %w", err)
	}
	w := &WAL{
		dir:    dir,
		segMax: opts.SegmentBytes,
		index:  make(map[[sha256.Size]byte]uint64),
		now:    time.Now,
	}
	if w.segMax <= 0 {
		w.segMax = DefaultSegmentBytes
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, n := range segs {
		last := i == len(segs)-1
		if err := w.recoverSegment(n, last); err != nil {
			return nil, err
		}
	}
	if len(segs) == 0 {
		if err := w.openSegment(1); err != nil {
			return nil, err
		}
	}
	w.synced = w.written.Load()
	return w, nil
}

// listSegments returns the numeric suffixes of the wal-*.seg files in
// dir, sorted. Gaps in the numbering mean a whole segment vanished —
// that is corruption, not history.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: reading wal dir: %w", err)
	}
	var segs []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.seg", &n); err == nil && e.Name() == segName(n) {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	for i, n := range segs {
		if want := segs[0] + i; n != want {
			return nil, fmt.Errorf("ingest: wal segment %s missing (found %s): %w",
				segName(want), segName(n), ErrCorrupt)
		}
	}
	return segs, nil
}

// recoverSegment scans one segment, indexing its records. Only the
// final segment may carry a torn tail (truncated in place) or a torn
// header (the file is recreated empty — a header is fsynced before any
// record, so a torn one proves the segment never held acknowledged
// data).
func (w *WAL) recoverSegment(n int, last bool) error {
	path := filepath.Join(w.dir, segName(n))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: opening wal segment: %w", err)
	}
	keep, err := readSegment(f, n, last, &w.nextSeq, func(rec *walRecord, hash [sha256.Size]byte) error {
		w.records++
		if _, dup := w.index[hash]; !dup {
			w.index[hash] = rec.Seq
		}
		if w.oldest == 0 || (rec.ReceivedUnix != 0 && rec.ReceivedUnix < w.oldest) {
			w.oldest = rec.ReceivedUnix
		}
		return nil
	})
	if err != nil {
		f.Close()
		if errors.Is(err, errTornHeader) {
			// Crash between segment creation and header fsync: recreate.
			if rerr := os.Remove(path); rerr != nil {
				return fmt.Errorf("ingest: removing torn wal segment: %w", rerr)
			}
			return w.openSegment(n)
		}
		return fmt.Errorf("%s: %w", path, err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("ingest: sizing wal segment: %w", err)
	}
	if !last {
		f.Close()
		w.written.Add(size)
		return nil
	}
	if keep < size {
		// Torn tail: drop the partial frame that was in flight when the
		// process died. It was never acknowledged (Append fsyncs before
		// returning), so truncation loses nothing a client was promised.
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return fmt.Errorf("ingest: truncating torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("ingest: syncing truncated wal segment: %w", err)
		}
		size = keep
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("ingest: seeking wal segment: %w", err)
	}
	w.seg, w.segNum, w.segOff = f, n, size
	w.written.Add(size)
	return nil
}

// errTornHeader marks a final segment whose envelope never finished
// writing: recovery recreates such a segment, and Replay reads it as
// holding no acknowledged data.
var errTornHeader = errors.New("ingest: wal segment header torn")

// readSegment is the one reader of the segment format, shared by
// recovery and Replay so both accept and refuse the same bytes. It
// validates segment n's envelope (magic, header length, JSON header,
// format, segment number), then walks the record frames, checking each
// record's version, its sequence number against *next (advanced as it
// goes) and its hash before handing it to visit. It returns the byte
// offset just past the last complete frame. On the final segment a torn
// envelope is errTornHeader and a torn frame ends the walk; anywhere
// else either is ErrCorrupt. A visit error stops the walk and is
// returned as is.
func readSegment(r io.Reader, n int, last bool, next *uint64,
	visit func(rec *walRecord, hash [sha256.Size]byte) error) (keep int64, err error) {
	cr := &countingReader{r: r}
	br := bufio.NewReaderSize(cr, 64<<10)
	torn := func(why string) (int64, error) {
		if last {
			return 0, errTornHeader
		}
		return 0, fmt.Errorf("ingest: wal segment %s: %w", why, ErrCorrupt)
	}
	var env [len(walMagic) + 4]byte
	if _, err := io.ReadFull(br, env[:]); err != nil {
		return torn("envelope truncated")
	}
	if string(env[:len(walMagic)]) != walMagic {
		return torn("magic missing")
	}
	hdrLen := binary.BigEndian.Uint32(env[len(walMagic):])
	if hdrLen == 0 || hdrLen > maxWALHeaderLen {
		return torn(fmt.Sprintf("header length %d implausible", hdrLen))
	}
	hdrBytes := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdrBytes); err != nil {
		return torn("header truncated")
	}
	var hdr walSegmentHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return torn("header unparseable")
	}
	if hdr.Format != walFormat {
		return 0, fmt.Errorf("ingest: wal segment format %d, this build reads %d: %w",
			hdr.Format, walFormat, ErrVersion)
	}
	if hdr.Segment != n {
		return 0, fmt.Errorf("ingest: wal segment header claims %d, file is %s: %w",
			hdr.Segment, segName(n), ErrCorrupt)
	}
	for {
		// countingReader.n minus what br holds ahead is the offset of the
		// next unread byte: the end of the last complete frame.
		keep = cr.n - int64(br.Buffered())
		rec, err := readFrame(br)
		if err == io.EOF {
			return keep, nil
		}
		if err != nil {
			if last {
				return keep, nil // torn tail: everything before keep stays
			}
			return keep, err
		}
		if rec.V > walRecordV {
			return keep, fmt.Errorf("ingest: wal record v%d, this build reads ≤ v%d: %w",
				rec.V, walRecordV, ErrVersion)
		}
		if rec.Seq != *next+1 {
			return keep, fmt.Errorf("ingest: wal record seq %d, want %d: %w",
				rec.Seq, *next+1, ErrCorrupt)
		}
		hash, err := decodeHash(rec.Hash)
		if err != nil {
			return keep, err
		}
		*next = rec.Seq
		if err := visit(rec, hash); err != nil {
			return keep, err
		}
	}
}

// decodeHash parses a record's hex canonical hash.
func decodeHash(s string) ([sha256.Size]byte, error) {
	var h [sha256.Size]byte
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != sha256.Size {
		return h, fmt.Errorf("ingest: wal record hash unparseable: %w", ErrCorrupt)
	}
	copy(h[:], b)
	return h, nil
}

// readFrame reads one length-prefixed, digest-checked record. io.EOF
// means a clean frame boundary; every other failure — short length,
// short payload, short or mismatched digest, unparseable JSON — is a
// torn or flipped frame.
func readFrame(r io.Reader) (*walRecord, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("ingest: wal record length torn: %w: %w", ErrCorrupt, err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxWALRecordLen {
		return nil, fmt.Errorf("ingest: wal record length %d implausible: %w", n, ErrCorrupt)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("ingest: wal record payload torn: %w: %w", ErrCorrupt, err)
	}
	var digest [sha256.Size]byte
	if _, err := io.ReadFull(r, digest[:]); err != nil {
		return nil, fmt.Errorf("ingest: wal record digest torn: %w: %w", ErrCorrupt, err)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], digest[:]) {
		return nil, fmt.Errorf("ingest: wal record digest mismatch (bit flip or torn write): %w", ErrCorrupt)
	}
	rec := &walRecord{}
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, fmt.Errorf("ingest: wal record unparseable: %w: %w", ErrCorrupt, err)
	}
	return rec, nil
}

// openSegment creates segment n, writes and fsyncs its header, fsyncs
// the directory so the file name itself is durable, and installs it as
// the current segment. Callers hold mu (or are inside Open, before the
// WAL is shared).
func (w *WAL) openSegment(n int) error {
	hdr, err := json.Marshal(walSegmentHeader{Format: walFormat, Segment: n})
	if err != nil {
		return fmt.Errorf("ingest: encoding wal segment header: %w", err)
	}
	var buf bytes.Buffer
	buf.WriteString(walMagic)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(hdr)))
	buf.Write(lenBuf[:])
	buf.Write(hdr)
	path := filepath.Join(w.dir, segName(n))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: creating wal segment: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("ingest: writing wal segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ingest: syncing wal segment header: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.syncMu.Lock()
	w.seg, w.segNum, w.segOff = f, n, int64(buf.Len())
	w.written.Add(int64(buf.Len()))
	w.synced = w.written.Load()
	w.syncMu.Unlock()
	return nil
}

// syncDir fsyncs a directory so renames and creations inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ingest: opening wal dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ingest: syncing wal dir: %w", err)
	}
	return nil
}

// Append durably logs rec (which must be Resolved) and returns its
// sequence number. The record's bytes are fsynced before Append
// returns — the acknowledgement IS the durability promise. A recipe
// whose canonical hash is already in the log writes nothing and
// returns the original sequence with Duplicate set; the duplicate ack
// still waits for that record's durability, so a crashed-and-retried
// client never receives an ack for bytes that are not yet on disk.
func (w *WAL) Append(rec *recipe.Recipe) (Ack, error) {
	hash := recipe.CanonicalHash(rec)
	doc, err := json.Marshal(rec)
	if err != nil {
		return Ack{}, fmt.Errorf("ingest: encoding recipe: %w", err)
	}

	w.mu.Lock()
	if seq, dup := w.index[hash]; dup {
		target := w.written.Load()
		w.mu.Unlock()
		if err := w.ack(target); err != nil {
			return Ack{}, err
		}
		return Ack{Seq: seq, Duplicate: true}, nil
	}
	seq := w.nextSeq + 1
	nowUnix := w.now().Unix()
	payload, err := json.Marshal(walRecord{
		V: walRecordV, Seq: seq,
		Hash:         hex.EncodeToString(hash[:]),
		ReceivedUnix: nowUnix,
		Recipe:       doc,
	})
	if err != nil {
		w.mu.Unlock()
		return Ack{}, fmt.Errorf("ingest: encoding wal record: %w", err)
	}
	if len(payload) > maxWALRecordLen {
		w.mu.Unlock()
		return Ack{}, fmt.Errorf("%w: record is %d bytes, limit %d", ErrTooLarge, len(payload), maxWALRecordLen)
	}
	frame := make([]byte, 0, 4+len(payload)+sha256.Size)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	frame = append(frame, lenBuf[:]...)
	frame = append(frame, payload...)
	sum := sha256.Sum256(payload)
	frame = append(frame, sum[:]...)
	// WriteAt at the tracked offset, never Write at the file cursor: a
	// partial write (ENOSPC mid-frame) leaves garbage past segOff, but
	// because no state advances, the next append re-targets the same
	// offset and overwrites it — a failed write can never shift where
	// later acknowledged frames land. Any garbage left beyond the final
	// good frame is dropped by rotation/Close truncation or, after a
	// crash, by torn-tail recovery.
	if _, err := w.seg.WriteAt(frame, w.segOff); err != nil {
		w.mu.Unlock()
		return Ack{}, fmt.Errorf("ingest: appending wal record: %w", err)
	}
	w.nextSeq = seq
	w.index[hash] = seq
	w.records++
	if w.oldest == 0 {
		w.oldest = nowUnix
	}
	w.segOff += int64(len(frame))
	target := w.written.Add(int64(len(frame)))
	var rotateErr error
	if w.segOff >= w.segMax {
		rotateErr = w.rotateLocked()
	}
	w.mu.Unlock()
	if rotateErr != nil {
		return Ack{}, rotateErr
	}
	if err := w.ack(target); err != nil {
		return Ack{}, err
	}
	return Ack{Seq: seq}, nil
}

// ack blocks until every byte up to target is fsynced. Group commit:
// the first waiter through syncMu pays one fsync that covers every
// record written before it started; later waiters see their offset
// already below synced and return free.
func (w *WAL) ack(target int64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced >= target {
		return nil
	}
	// Bytes written after this load may or may not ride along; claiming
	// only what was written before the fsync began keeps synced honest.
	durable := w.written.Load()
	if err := w.seg.Sync(); err != nil {
		return fmt.Errorf("ingest: syncing wal segment: %w", err)
	}
	w.synced = durable
	return nil
}

// rotateLocked seals the current segment and opens the next. Called
// with mu held. The old segment is truncated to its last acknowledged
// frame (dropping garbage a failed WriteAt may have left past segOff —
// a sealed segment must scan clean end to end, it gets no torn-tail
// tolerance) and fsynced before the new one exists, so a crash
// mid-rotation leaves the sealed segment complete and at worst a
// headerless new file — which recovery recreates.
func (w *WAL) rotateLocked() error {
	if err := w.seg.Truncate(w.segOff); err != nil {
		return fmt.Errorf("ingest: trimming wal segment before rotation: %w", err)
	}
	if err := w.seg.Sync(); err != nil {
		return fmt.Errorf("ingest: syncing wal segment before rotation: %w", err)
	}
	w.syncMu.Lock()
	// Everything written so far lives in the just-synced segment.
	w.synced = w.written.Load()
	w.syncMu.Unlock()
	old := w.seg
	if err := w.openSegment(w.segNum + 1); err != nil {
		return err
	}
	if err := old.Close(); err != nil {
		return fmt.Errorf("ingest: closing sealed wal segment: %w", err)
	}
	return nil
}

// LastSeq is the highest acknowledged sequence number.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// Stats summarizes the log.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Segments:   w.segNum,
		Bytes:      w.written.Load(),
		Records:    w.records,
		LastSeq:    w.nextSeq,
		OldestUnix: w.oldest,
	}
}

// Close trims the current segment to its last acknowledged frame,
// fsyncs, and closes it. Appends after Close fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg == nil {
		return nil
	}
	err := w.seg.Truncate(w.segOff)
	if serr := w.seg.Sync(); err == nil {
		err = serr
	}
	if cerr := w.seg.Close(); err == nil {
		err = cerr
	}
	w.seg = nil
	return err
}

// Replay streams every record with Seq ≤ upTo (0 means all at scan
// time) through fn, in sequence order, deduplicated by canonical hash
// — first occurrence wins, matching the append-side index. It reads
// the segment files directly, so it works on a live directory (a
// concurrent appender only adds frames past upTo, which replay never
// reaches) and on a cold one with no WAL open. It reads segments with
// recovery's reader, so it refuses exactly the damage Open refuses; a
// torn final header holds no acknowledged data and ends the stream.
// At-least-once delivery with dedup is the contract re-fits build on.
func Replay(dir string, upTo uint64, fn func(seq uint64, doc json.RawMessage) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	seen := make(map[[sha256.Size]byte]bool)
	visit := func(rec *walRecord, hash [sha256.Size]byte) error {
		if upTo != 0 && rec.Seq > upTo {
			return errReplayDone
		}
		if seen[hash] {
			return nil
		}
		seen[hash] = true
		return fn(rec.Seq, rec.Recipe)
	}
	var next uint64
	for i, n := range segs {
		path := filepath.Join(dir, segName(n))
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("ingest: opening wal segment: %w", err)
		}
		_, err = readSegment(f, n, i == len(segs)-1, &next, visit)
		f.Close()
		if errors.Is(err, errReplayDone) || errors.Is(err, errTornHeader) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

// errReplayDone is Replay's visitor signal that upTo was passed.
var errReplayDone = errors.New("ingest: replay reached its upTo")

// countingReader tracks bytes consumed from the underlying reader, so
// readSegment can convert "last good frame" into a truncation offset.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
