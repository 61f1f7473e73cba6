package ingest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// TestManagerWatermarkPersistence: CommitFit writes the watermark into
// the shard manifest, a fresh manager over the same directories reads
// it back, and RecordsSinceFit counts exactly the records past it.
func TestManagerWatermarkPersistence(t *testing.T) {
	walDir, shardDir := t.TempDir(), t.TempDir()
	m, err := OpenManager(ManagerOptions{Dir: walDir, ShardDir: shardDir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Append(testRecipe(t, "wm-"+string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.RecordsSinceFit(); got != 3 {
		t.Fatalf("RecordsSinceFit = %d, want 3", got)
	}
	if err := m.CommitFit(3, 42); err != nil {
		t.Fatal(err)
	}
	if got := m.RecordsSinceFit(); got != 0 {
		t.Fatalf("RecordsSinceFit after commit = %d", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenManager(ManagerOptions{Dir: walDir, ShardDir: shardDir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Watermark(); got != 3 {
		t.Fatalf("watermark after reopen = %d, want 3", got)
	}
	if got, _ := pipeline.LoadIngestState(shardDir); got != 3 {
		t.Fatalf("LoadIngestState = %d, want 3", got)
	}
	// Monotone: a stale commit (an older refit finishing late) cannot
	// roll the watermark back.
	if err := m2.CommitFit(2, 41); err != nil {
		t.Fatal(err)
	}
	if got := m2.Watermark(); got != 3 {
		t.Fatalf("stale commit moved the watermark to %d", got)
	}
	if got, _ := pipeline.LoadIngestState(shardDir); got != 3 {
		t.Fatalf("stale commit persisted watermark %d", got)
	}
}

// TestManagerStatusLifecycle: the /statusz ingest block tracks the
// refit state machine and the staleness clock.
func TestManagerStatusLifecycle(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	m, err := OpenManager(ManagerOptions{
		Dir:   t.TempDir(),
		Clock: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	st := m.Status()
	if st.RefitState != RefitIdle || st.RecordsSinceFit != 0 || st.StalenessSeconds != 0 {
		t.Fatalf("fresh status = %+v", st)
	}

	if _, err := m.Append(testRecipe(t, "s-1")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second)
	st = m.Status()
	if st.RecordsSinceFit != 1 || st.WAL.LastSeq != 1 {
		t.Fatalf("status after append = %+v", st)
	}
	if st.StalenessSeconds < 29 || st.StalenessSeconds > 31 {
		t.Fatalf("staleness = %vs, want ~30s", st.StalenessSeconds)
	}

	m.beginRefit()
	if st := m.Status(); st.RefitState != RefitRunning {
		t.Fatalf("state = %s, want running", st.RefitState)
	}
	m.failRefit(errors.New("fit exploded"))
	st = m.Status()
	if st.RefitState != RefitFailed || !strings.Contains(st.RefitError, "fit exploded") {
		t.Fatalf("failed status = %+v", st)
	}

	if err := m.CommitFit(1, 7); err != nil {
		t.Fatal(err)
	}
	st = m.Status()
	if st.RefitState != RefitIdle || st.RefitError != "" {
		t.Fatalf("status after commit = %+v", st)
	}
	if st.LastPromoted != 7 || st.LastFitUnix != now.Unix() {
		t.Fatalf("promotion bookkeeping = %+v", st)
	}
	if st.StalenessSeconds != 0 {
		t.Fatalf("staleness after catch-up = %v", st.StalenessSeconds)
	}
}

// TestManagerMetricsExposition: the ingest metric family lands on the
// shared registry with the documented names.
func TestManagerMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := OpenManager(ManagerOptions{Dir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Append(testRecipe(t, "m-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(testRecipe(t, "m-1")); err != nil { // duplicate
		t.Fatal(err)
	}
	m.failRefit(errors.New("boom"))
	if err := m.CommitFit(1, 3); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`ingest_records_total{source="wal"} 1`,
		`ingest_duplicate_records_total 1`,
		`refit_runs_total{outcome="failed"} 1`,
		`refit_runs_total{outcome="ok"} 1`,
		"ingest_wal_bytes",
		"ingest_wal_segments 1",
		"ingest_watermark 1",
		"ingest_records_since_fit 0",
		"model_staleness_seconds 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestManagerCommitFitPersistFailure: the promotion already happened
// when CommitFit runs, so a failed watermark save must not leave
// /statusz stuck at "running" or hide the success — the in-memory
// watermark, promotion bookkeeping, and idle state all advance, the
// error reaches the caller, and the lag is surfaced as the refit
// error.
func TestManagerCommitFitPersistFailure(t *testing.T) {
	badShardDir := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(badShardDir, []byte("occupied"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenManager(ManagerOptions{Dir: t.TempDir(), ShardDir: badShardDir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Append(testRecipe(t, "pf-1")); err != nil {
		t.Fatal(err)
	}
	m.beginRefit()
	if err := m.CommitFit(1, 9); err == nil {
		t.Fatal("CommitFit with an unwritable shard dir reported success")
	}
	st := m.Status()
	if st.RefitState != RefitIdle {
		t.Fatalf("refit state after failed save = %q, want idle", st.RefitState)
	}
	if !strings.Contains(st.RefitError, "watermark save") {
		t.Fatalf("refit error %q does not surface the save failure", st.RefitError)
	}
	if st.Watermark != 1 || st.LastPromoted != 9 || st.RecordsSinceFit != 0 {
		t.Fatalf("in-memory commit did not advance: %+v", st)
	}
}

// TestManagerStalenessSurvivesRestart: the last-fit time is persisted
// with the watermark, so a restarted manager measures staleness from
// the last promotion, not from the oldest (already fitted) record in
// the WAL — otherwise one pending record after a restart would trip
// the -refit-age trigger immediately and spuriously.
func TestManagerStalenessSurvivesRestart(t *testing.T) {
	walDir, shardDir := t.TempDir(), t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	m, err := OpenManager(ManagerOptions{Dir: walDir, ShardDir: shardDir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(testRecipe(t, "old")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Hour)
	if err := m.CommitFit(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(testRecipe(t, "fresh")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	now = now.Add(30 * time.Second)
	m2, err := OpenManager(ManagerOptions{Dir: walDir, ShardDir: shardDir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.RecordsSinceFit(); got != 1 {
		t.Fatalf("RecordsSinceFit after restart = %d, want 1", got)
	}
	// The oldest WAL record is 2h old but already fitted; only the
	// post-fit record is pending, and it is ~30s old.
	if s := m2.staleness().Seconds(); s < 29 || s > 31 {
		t.Fatalf("staleness after restart = %vs, want ~30s", s)
	}
}
