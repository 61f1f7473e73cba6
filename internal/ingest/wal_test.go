package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/recipe"
)

// testRecipe builds a resolved, ingestible recipe whose canonical hash
// is unique per id.
func testRecipe(t testing.TB, id string) *recipe.Recipe {
	t.Helper()
	r := &recipe.Recipe{
		ID:          id,
		Title:       "ゼリー " + id,
		Description: "ぷるぷるです",
		Ingredients: []recipe.Ingredient{
			{Name: "ゼラチン", Amount: "5g"},
			{Name: "水", Amount: "400ml"},
		},
	}
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	return r
}

// appendN appends n fresh recipes with the given id prefix, asserting
// dense sequence numbers starting from the WAL's current tail.
func appendN(t *testing.T, w *WAL, prefix string, n int) {
	t.Helper()
	base := w.LastSeq()
	for i := 0; i < n; i++ {
		ack, err := w.Append(testRecipe(t, fmt.Sprintf("%s-%d", prefix, i)))
		if err != nil {
			t.Fatal(err)
		}
		if ack.Duplicate || ack.Seq != base+uint64(i)+1 {
			t.Fatalf("append %d: ack %+v, want seq %d", i, ack, base+uint64(i)+1)
		}
	}
}

// replaySeqs replays the directory and returns the delivered sequence
// numbers alongside the decoded recipe IDs.
func replaySeqs(t *testing.T, dir string, upTo uint64) (seqs []uint64, ids []string) {
	t.Helper()
	err := Replay(dir, upTo, func(seq uint64, doc json.RawMessage) error {
		var r recipe.Recipe
		if err := json.Unmarshal(doc, &r); err != nil {
			return err
		}
		seqs = append(seqs, seq)
		ids = append(ids, r.ID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs, ids
}

// TestWALAppendReopenReplay: the basic durability loop — appended
// records survive a close/reopen, sequence numbers continue densely,
// and replay returns every document in order.
func TestWALAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, "r", 5)
	st := w.Stats()
	if st.Records != 5 || st.LastSeq != 5 || st.Segments != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.OldestUnix == 0 {
		t.Error("no oldest-record timestamp recorded")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.LastSeq(); got != 5 {
		t.Fatalf("LastSeq after reopen = %d, want 5", got)
	}
	ack, err := w2.Append(testRecipe(t, "r-5"))
	if err != nil || ack.Seq != 6 {
		t.Fatalf("append after reopen: ack %+v err %v, want seq 6", ack, err)
	}

	seqs, ids := replaySeqs(t, dir, 0)
	if len(seqs) != 6 {
		t.Fatalf("replayed %d records, want 6", len(seqs))
	}
	for i, seq := range seqs {
		if seq != uint64(i)+1 || ids[i] != fmt.Sprintf("r-%d", i) {
			t.Fatalf("replay[%d] = seq %d id %s", i, seq, ids[i])
		}
	}

	// upTo freezes the stream at a snapshot boundary.
	if seqs, _ := replaySeqs(t, dir, 3); len(seqs) != 3 {
		t.Fatalf("replay upTo=3 returned %d records", len(seqs))
	}
}

// TestWALDuplicateAck: a canonical-hash duplicate writes nothing,
// returns the original sequence, and the dedup index survives reopen.
func TestWALDuplicateAck(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(testRecipe(t, "same")); err != nil {
		t.Fatal(err)
	}
	sizeBefore := w.Stats().Bytes
	ack, err := w.Append(testRecipe(t, "same"))
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Duplicate || ack.Seq != 1 {
		t.Fatalf("duplicate ack = %+v", ack)
	}
	if st := w.Stats(); st.Records != 1 || st.Bytes != sizeBefore {
		t.Fatalf("duplicate wrote bytes: %+v", st)
	}
	w.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	ack, err = w2.Append(testRecipe(t, "same"))
	if err != nil || !ack.Duplicate || ack.Seq != 1 {
		t.Fatalf("dedup index lost across reopen: ack %+v err %v", ack, err)
	}
}

// TestWALSegmentRotation: a tiny rotation threshold seals a segment
// per record; recovery walks the whole chain.
func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, "rot", 4)
	if st := w.Stats(); st.Segments != 5 {
		// Four sealed segments plus the fresh one rotation opened.
		t.Fatalf("segments = %d, want 5", st.Segments)
	}
	w.Close()

	w2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.LastSeq(); got != 4 {
		t.Fatalf("LastSeq = %d", got)
	}
	if seqs, _ := replaySeqs(t, dir, 0); len(seqs) != 4 {
		t.Fatalf("replayed %d records across segments, want 4", len(seqs))
	}
}

// lastSegPath returns the path of the highest-numbered segment.
func lastSegPath(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d)", err, len(segs))
	}
	return filepath.Join(dir, segName(segs[len(segs)-1]))
}

// TestWALTornTailRecovery: every shape of partial final write — cut
// length prefix, cut payload, cut digest, junk length, zero length —
// is truncated away on reopen, keeping exactly the acknowledged
// records, and the file converges back to its pre-damage size.
func TestWALTornTailRecovery(t *testing.T) {
	damage := []struct {
		name string
		// mutate appends or cuts bytes at the segment tail; wantRecords
		// is the record count recovery must preserve (all 3 appends were
		// acknowledged before the damage in every tolerated case except
		// the bit flip, which eats the final record).
		mutate      func(t *testing.T, path string)
		wantRecords uint64
	}{
		{"cut mid-digest", func(t *testing.T, path string) { chop(t, path, 5) }, 2},
		{"trailing length prefix only", func(t *testing.T, path string) { extend(t, path, []byte{0, 0, 0, 40}) }, 3},
		{"trailing zero-length frame", func(t *testing.T, path string) { extend(t, path, []byte{0, 0, 0, 0}) }, 3},
		{"trailing junk frame", func(t *testing.T, path string) {
			extend(t, path, append([]byte{0, 0, 0, 8}, []byte("garbage!")...))
		}, 3},
		{"bit flip in final record", func(t *testing.T, path string) { flipByte(t, path, -10) }, 2},
	}
	for _, tc := range damage {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, "torn", 3)
			w.Close()
			path := lastSegPath(t, dir)
			tc.mutate(t, path)

			w2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("recovery refused a torn tail: %v", err)
			}
			if st := w2.Stats(); st.Records != tc.wantRecords {
				t.Fatalf("recovered %d records, want %d", st.Records, tc.wantRecords)
			}
			// The log stays appendable and sequence numbers stay dense.
			ack, err := w2.Append(testRecipe(t, "post-recovery"))
			if err != nil || ack.Seq != tc.wantRecords+1 {
				t.Fatalf("append after recovery: %+v, %v", ack, err)
			}
			w2.Close()
			if seqs, _ := replaySeqs(t, dir, 0); uint64(len(seqs)) != tc.wantRecords+1 {
				t.Fatalf("replayed %d records, want %d", len(seqs), tc.wantRecords+1)
			}
		})
	}
}

// TestWALCorruptionRefused: damage outside the final segment's tail —
// bit flips in sealed history, a vanished or misnamed segment, a future
// format — must refuse to load rather than silently drop acknowledged
// records, and Replay must refuse the same bytes with the same typed
// error, so a re-fit never streams a log that recovery rejects.
func TestWALCorruptionRefused(t *testing.T) {
	refused := func(t *testing.T, dir string, want error) {
		t.Helper()
		if _, err := Open(dir, Options{}); !errors.Is(err, want) {
			t.Fatalf("Open = %v, want %v", err, want)
		}
		if err := Replay(dir, 0, func(uint64, json.RawMessage) error { return nil }); !errors.Is(err, want) {
			t.Fatalf("Replay = %v, want %v", err, want)
		}
	}
	t.Run("bit flip in sealed segment", func(t *testing.T) {
		dir := t.TempDir()
		w, err := Open(dir, Options{SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, "seal", 3)
		w.Close()
		flipByte(t, filepath.Join(dir, segName(2)), -10)
		refused(t, dir, ErrCorrupt)
	})
	t.Run("missing middle segment", func(t *testing.T) {
		dir := t.TempDir()
		w, err := Open(dir, Options{SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, "gap", 3)
		w.Close()
		if err := os.Remove(filepath.Join(dir, segName(2))); err != nil {
			t.Fatal(err)
		}
		refused(t, dir, ErrCorrupt)
	})
	t.Run("header names another segment", func(t *testing.T) {
		dir := t.TempDir()
		writeSegmentFile(t, dir, 1, `{"format":1,"segment":2}`,
			`{"v":1,"seq":1,"hash":"`+zeroHashHex()+`","recipe":{}}`)
		refused(t, dir, ErrCorrupt)
	})
	t.Run("future segment format", func(t *testing.T) {
		dir := t.TempDir()
		writeSegmentFile(t, dir, 1, `{"format":99,"segment":1}`)
		refused(t, dir, ErrVersion)
	})
	t.Run("future record version", func(t *testing.T) {
		dir := t.TempDir()
		writeSegmentFile(t, dir, 1, `{"format":1,"segment":1}`,
			`{"v":99,"seq":1,"hash":"`+zeroHashHex()+`","recipe":{}}`)
		refused(t, dir, ErrVersion)
	})
	t.Run("sequence discontinuity", func(t *testing.T) {
		dir := t.TempDir()
		writeSegmentFile(t, dir, 1, `{"format":1,"segment":1}`,
			`{"v":1,"seq":1,"hash":"`+zeroHashHex()+`","recipe":{}}`,
			`{"v":1,"seq":3,"hash":"`+zeroHashHex()+`","recipe":{}}`)
		refused(t, dir, ErrCorrupt)
	})
}

// TestWALCrashDuringRotation: the table of states a kill -9 can leave
// mid-rotation. In every one the sealed previous segment must survive
// byte-identical, every acknowledged record must replay, and the log
// must keep accepting appends.
func TestWALCrashDuringRotation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, newest string)
	}{
		{"crash before new segment created", func(t *testing.T, newest string) {
			if err := os.Remove(newest); err != nil {
				t.Fatal(err)
			}
		}},
		{"crash before header written", func(t *testing.T, newest string) {
			if err := os.Truncate(newest, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"crash mid-magic", func(t *testing.T, newest string) {
			if err := os.WriteFile(newest, []byte("RHEO"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"crash mid-header", func(t *testing.T, newest string) {
			if err := os.WriteFile(newest, append([]byte(walMagic), 0, 0, 0, 40), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"crash after header complete", func(t *testing.T, newest string) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{SegmentBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, "rotcrash", 2)
			w.Close()
			// Layout now: seg1(rec1) seg2(rec2) seg3(empty, current).
			sealed := filepath.Join(dir, segName(2))
			before, err := os.ReadFile(sealed)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, filepath.Join(dir, segName(3)))

			w2, err := Open(dir, Options{SegmentBytes: 1})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			after, err := os.ReadFile(sealed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("recovery rewrote a sealed segment")
			}
			if seqs, _ := replaySeqs(t, dir, 0); len(seqs) != 2 {
				t.Fatalf("replayed %d acknowledged records, want 2", len(seqs))
			}
			ack, err := w2.Append(testRecipe(t, "after-rotation-crash"))
			if err != nil || ack.Seq != 3 {
				t.Fatalf("append after rotation crash: %+v, %v", ack, err)
			}
			w2.Close()
		})
	}
}

// TestWALRecoveryIdempotent: recovering a damaged log twice converges —
// the second open finds exactly the bytes the first one left.
func TestWALRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, "idem", 3)
	w.Close()
	extend(t, lastSegPath(t, dir), []byte{0, 0, 0, 9, 'j', 'u', 'n', 'k'})

	for i := 0; i < 2; i++ {
		w, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		w.Close()
	}
	want := snapshotDir(t, dir)
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if got := snapshotDir(t, dir); !bytes.Equal(got, want) {
		t.Fatal("repeated recovery kept changing the log bytes")
	}
}

// chop truncates n bytes off the end of path.
func chop(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// extend appends raw bytes to path.
func extend(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// flipByte XORs one byte at offset (negative: from the end).
func flipByte(t *testing.T, path string, offset int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := offset
	if i < 0 {
		i += int64(len(b))
	}
	b[i] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeSegmentFile hand-crafts a segment: envelope from headerJSON,
// then one correctly-framed record per payload (lengths and digests
// valid, so only the JSON content is under test).
func writeSegmentFile(t *testing.T, dir string, n int, headerJSON string, payloads ...string) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(walMagic)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(headerJSON)))
	buf.Write(lenBuf[:])
	buf.WriteString(headerJSON)
	for _, p := range payloads {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(p)))
		buf.Write(lenBuf[:])
		buf.WriteString(p)
		sum := sha256.Sum256([]byte(p))
		buf.Write(sum[:])
	}
	if err := os.WriteFile(filepath.Join(dir, segName(n)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func zeroHashHex() string {
	var h [sha256.Size]byte
	return fmt.Sprintf("%x", h[:])
}

// snapshotDir concatenates every segment's bytes for byte-identity
// assertions.
func snapshotDir(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, n := range segs {
		b, err := os.ReadFile(filepath.Join(dir, segName(n)))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// FuzzWALRecord throws arbitrary bytes at segment recovery: whatever
// the file holds, Open either refuses with the typed taxonomy or
// recovers a log that is immediately usable — appendable, replayable,
// and stable under a second recovery.
func FuzzWALRecord(f *testing.F) {
	seedDir := f.TempDir()
	w, err := Open(seedDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r := &recipe.Recipe{ID: fmt.Sprintf("seed-%d", i), Title: "ゼリー",
			Ingredients: []recipe.Ingredient{{Name: "ゼラチン", Amount: "5g"}, {Name: "水", Amount: "400ml"}}}
		if err := r.Resolve(); err != nil {
			f.Fatal(err)
		}
		if _, err := w.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	valid, err := os.ReadFile(filepath.Join(seedDir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}

	f.Add(valid)                // intact
	f.Add(valid[:len(valid)-7]) // torn tail
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)                                // bit flip
	f.Add(append(bytes.Clone(valid), 0, 0, 0, 0)) // zero-length frame
	futureRec, _ := json.Marshal(walRecord{V: walRecordV + 1, Seq: 3, Hash: zeroHashHex(), Recipe: json.RawMessage(`{}`)})
	frame := make([]byte, 4)
	binary.BigEndian.PutUint32(frame, uint32(len(futureRec)))
	frame = append(frame, futureRec...)
	sum := sha256.Sum256(futureRec)
	frame = append(frame, sum[:]...)
	f.Add(append(bytes.Clone(valid), frame...)) // future record version
	f.Add([]byte("RHEO"))                       // torn header
	f.Add([]byte{})                             // empty file

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(dir, Options{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Open failed outside the error taxonomy: %v", err)
			}
			return
		}
		recovered := w.Stats().Records
		r := &recipe.Recipe{ID: "fuzz-post", Title: "ゼリー",
			Ingredients: []recipe.Ingredient{{Name: "ゼラチン", Amount: "5g"}, {Name: "水", Amount: "400ml"}}}
		if err := r.Resolve(); err != nil {
			t.Fatal(err)
		}
		ack, err := w.Append(r)
		if err != nil {
			t.Fatalf("recovered log refused an append: %v", err)
		}
		if !ack.Duplicate && ack.Seq != w.LastSeq() {
			t.Fatalf("ack seq %d vs LastSeq %d", ack.Seq, w.LastSeq())
		}
		// Replay reads what recovery read: exactly the distinct hashes in
		// the index, which now includes the append.
		var replayed int
		if err := Replay(dir, 0, func(uint64, json.RawMessage) error { replayed++; return nil }); err != nil {
			t.Fatalf("recovered log refused replay: %v", err)
		}
		if distinct := len(w.index); replayed != distinct {
			t.Fatalf("replayed %d records, recovery indexed %d distinct hashes (%d records recovered, +1 appended)",
				replayed, distinct, recovered)
		}
		w.Close()
		if _, err := Open(dir, Options{}); err != nil {
			t.Fatalf("second recovery failed: %v", err)
		}
	})
}

// TestWALAppendRejectsOversizeRecord: a recipe whose encoded record
// would exceed maxWALRecordLen is refused with ErrTooLarge BEFORE any
// bytes land — readFrame treats an over-limit length as corruption, so
// acking such a record would promise durability recovery cannot honor.
// The log stays fully usable afterwards.
func TestWALAppendRejectsOversizeRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	huge := testRecipe(t, "huge")
	huge.Description = strings.Repeat("a", maxWALRecordLen+1)
	if _, err := w.Append(huge); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize append err = %v, want ErrTooLarge", err)
	}
	if st := w.Stats(); st.Records != 0 || st.LastSeq != 0 {
		t.Fatalf("oversize append mutated the log: %+v", st)
	}
	appendN(t, w, "after-oversize", 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery after rejected oversize append: %v", err)
	}
	defer w2.Close()
	if st := w2.Stats(); st.Records != 2 || st.LastSeq != 2 {
		t.Fatalf("recovered stats = %+v, want 2 records", st)
	}
}

// TestWALFailedWriteGarbageOverwritten: a failed in-place write (e.g.
// ENOSPC mid-frame) leaves garbage bytes past the last acknowledged
// frame. Because Append targets the tracked offset with WriteAt, the
// next acknowledged frame overwrites the garbage head, and rotation
// truncates whatever remains — so a sealed segment scans clean end to
// end and no acknowledged record is ever stranded behind garbage.
func TestWALFailedWriteGarbageOverwritten(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes 1: every append crosses the threshold, so the segment
	// carrying the garbage tail is sealed (rotation) right after the
	// overwriting append — the strictest recovery posture, since sealed
	// segments get no torn-tail tolerance.
	w, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, "pre-garbage", 1) // lands in seg 1, rotates to seg 2
	active := filepath.Join(dir, segName(w.segNum))
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage longer than any frame we will append, emulating a torn
	// write whose error meant no WAL state advanced.
	if _, err := f.Write(bytes.Repeat([]byte{0xAA}, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	appendN(t, w, "post-garbage", 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatalf("recovery with garbage-tail segment: %v", err)
	}
	defer w2.Close()
	if st := w2.Stats(); st.Records != 3 || st.LastSeq != 3 {
		t.Fatalf("recovered stats = %+v, want 3 records", st)
	}
	seqs, ids := replaySeqs(t, dir, 0)
	if len(seqs) != 3 || ids[0] != "pre-garbage-0" || ids[1] != "post-garbage-0" || ids[2] != "post-garbage-1" {
		t.Fatalf("replayed %v / %v", seqs, ids)
	}
}
