package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/recipe"
)

// TestWALChaosChild is the kill -9 victim: re-executed by the chaos
// test below, it appends recipes as fast as it can, printing one
// "ACK <seq>" line after each durable acknowledgement. It is inert in
// a normal test run.
func TestWALChaosChild(t *testing.T) {
	dir := os.Getenv("INGEST_CHAOS_DIR")
	if dir == "" {
		t.Skip("chaos child: only runs re-executed by TestWALChaosKillDuringAppend")
	}
	// A tiny rotation threshold makes the kill land mid-rotation as
	// often as mid-append, covering both crash surfaces in one loop.
	segBytes, _ := strconv.ParseInt(os.Getenv("INGEST_CHAOS_SEGBYTES"), 10, 64)
	w, err := Open(dir, Options{SegmentBytes: segBytes})
	if err != nil {
		fmt.Printf("ERR %v\n", err)
		t.Fatal(err)
	}
	out := bufio.NewWriter(os.Stdout)
	nonce := os.Getenv("INGEST_CHAOS_NONCE")
	for i := 0; ; i++ {
		r := &recipe.Recipe{
			ID:    fmt.Sprintf("chaos-%s-%d", nonce, i),
			Title: "ゼリー chaos",
			Ingredients: []recipe.Ingredient{
				{Name: "ゼラチン", Amount: "5g"},
				{Name: "水", Amount: "400ml"},
			},
		}
		if err := r.Resolve(); err != nil {
			t.Fatal(err)
		}
		ack, err := w.Append(r)
		if err != nil {
			fmt.Printf("ERR %v\n", err)
			t.Fatal(err)
		}
		// The flushed line is the client-visible acknowledgement: the
		// parent only counts acks it actually received, exactly like a
		// client that never saw the response of an in-flight request.
		fmt.Fprintf(out, "ACK %d\n", ack.Seq)
		out.Flush()
	}
}

// TestWALChaosKillDuringAppend: kill -9 the appender at arbitrary
// instants — mid-append, mid-fsync, mid-rotation — across several
// rounds in one directory. After every kill the log must recover with
// every parent-observed acknowledgement intact, dense sequence
// numbers, and recovery must be idempotent (a second open changes no
// bytes).
func TestWALChaosKillDuringAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos suite skipped in -short")
	}
	dir := t.TempDir()
	var maxAcked uint64
	for round := 0; round < 5; round++ {
		maxAcked = runChaosRound(t, dir, round, maxAcked)
	}
	if maxAcked == 0 {
		t.Fatal("no acknowledgements observed across any round; the suite verified nothing")
	}
	t.Logf("verified %d acknowledged records across 5 kill -9 rounds", maxAcked)
}

// runChaosRound starts the child, kills it after a short random-ish
// delay, and verifies recovery. Returns the highest acknowledged
// sequence observed so far.
func runChaosRound(t *testing.T, dir string, round int, prevAcked uint64) uint64 {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestWALChaosChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"INGEST_CHAOS_DIR="+dir,
		"INGEST_CHAOS_SEGBYTES=256",
		fmt.Sprintf("INGEST_CHAOS_NONCE=%d", round),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Read acks until the kill lands; vary the delay per round so the
	// process dies at different points of the append/rotate cycle.
	delay := time.Duration(20+17*round) * time.Millisecond
	killed := make(chan struct{})
	go func() {
		time.Sleep(delay)
		cmd.Process.Kill() // SIGKILL: no handlers, no flush, no goodbye
		close(killed)
	}()

	maxAcked := prevAcked
	var acked []uint64
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "ERR ") {
			t.Fatalf("round %d: child error before kill: %s\n%s", round, line, stderr.String())
		}
		if !strings.HasPrefix(line, "ACK ") {
			continue // test framework chatter
		}
		seq, err := strconv.ParseUint(line[4:], 10, 64)
		if err != nil {
			t.Fatalf("round %d: bad ack line %q", round, line)
		}
		acked = append(acked, seq)
		if seq > maxAcked {
			maxAcked = seq
		}
	}
	if err := sc.Err(); err != nil && err != io.ErrUnexpectedEOF {
		t.Fatalf("round %d: reading acks: %v", round, err)
	}
	<-killed
	cmd.Wait() // expected to be the kill signal

	// Recovery: every acknowledged record must be present.
	w, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("round %d: recovery after kill -9 failed: %v", round, err)
	}
	last := w.LastSeq()
	w.Close()
	if last < maxAcked {
		t.Fatalf("round %d: recovered LastSeq %d < acknowledged %d — acked-record loss", round, last, maxAcked)
	}
	// The ingest watermark lives beside the segments. Recovery leaves it
	// alone: it still holds the LastSeq the previous round recovered.
	if wm, _ := pipeline.LoadIngestState(dir); wm < prevAcked || wm > last {
		t.Fatalf("round %d: watermark %d after recovery, want within [%d, %d]", round, wm, prevAcked, last)
	}

	replayed := make(map[uint64]bool)
	if err := Replay(dir, 0, func(seq uint64, doc json.RawMessage) error {
		replayed[seq] = true
		return nil
	}); err != nil {
		t.Fatalf("round %d: replay after recovery: %v", round, err)
	}
	for _, seq := range acked {
		if !replayed[seq] {
			t.Fatalf("round %d: acknowledged seq %d missing from replay", round, seq)
		}
	}
	// Sequence space is dense: unique recipes per round mean no dedup
	// collapses, so replay must hold exactly 1..last.
	if uint64(len(replayed)) != last {
		t.Fatalf("round %d: replayed %d unique seqs, want %d", round, len(replayed), last)
	}

	if err := pipeline.SaveIngestWatermark(dir, last, 0); err != nil {
		t.Fatalf("round %d: saving the watermark: %v", round, err)
	}

	// Idempotent recovery: a second open finds a fully healed log and
	// leaves its bytes alone.
	before := snapshotDir(t, dir)
	w2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("round %d: second recovery failed: %v", round, err)
	}
	w2.Close()
	if got := snapshotDir(t, dir); !bytes.Equal(got, before) {
		t.Fatalf("round %d: recovery was not idempotent", round)
	}
	return maxAcked
}
