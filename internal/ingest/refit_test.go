package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/recipe"
	"repro/internal/resilience"
	"repro/internal/storage"
)

// fitOptions is a refit configuration small enough to run several
// times per test.
func fitOptions() pipeline.Options {
	o := pipeline.DefaultOptions()
	o.Corpus.Scale = 0.1
	o.Model.Iterations = 60
	o.Model.BurnIn = 30
	o.UseW2VFilter = false
	return o
}

// bytesSource reopens an in-memory JSONL corpus — the reopenable
// contract RunStream's two passes depend on.
func bytesSource(b []byte) pipeline.StreamSource {
	return func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(b)), nil
	}
}

// baseCorpus renders a small synthetic corpus to JSONL.
func baseCorpus(t testing.TB, n int) []byte {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.Scale = 0.1
	var buf bytes.Buffer
	if err := corpus.GenerateTo(cfg, &buf, n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// walRecipes generates k corpus-realistic recipes (so they survive the
// dataset filters) re-labelled as online arrivals.
func walRecipes(t testing.TB, k int) []*recipe.Recipe {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.Scale = 0.1
	recs, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < k {
		t.Fatalf("corpus too small: %d < %d", len(recs), k)
	}
	out := make([]*recipe.Recipe, k)
	for i := 0; i < k; i++ {
		r := *recs[len(recs)-1-i]
		r.ID = fmt.Sprintf("online-%d", i)
		if err := r.Resolve(); err != nil {
			t.Fatal(err)
		}
		out[i] = &r
	}
	return out
}

// switchableFault flips an injected store error on and off.
type switchableFault struct {
	on  atomic.Bool
	err error
}

func (s *switchableFault) Fault(op string) resilience.Fault {
	if s.on.Load() {
		return resilience.Fault{Err: s.err}
	}
	return resilience.Fault{}
}

// refitRig is a manager + registry + refitter over temp dirs.
type refitRig struct {
	mgr    *Manager
	reg    *storage.Registry
	outage *switchableFault
	ref    *Refitter
	walDir string
	base   []byte
}

func newRefitRig(t *testing.T, minRecords uint64) *refitRig {
	t.Helper()
	rig := &refitRig{
		walDir: t.TempDir(),
		base:   baseCorpus(t, 120),
		outage: &switchableFault{err: errors.New("store unplugged")},
	}
	kv := storage.NewKVStore()
	kv.Faults = rig.outage
	rig.reg = storage.NewRegistry(kv)
	var err error
	rig.mgr, err = OpenManager(ManagerOptions{Dir: rig.walDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.mgr.Close() })
	rig.ref, err = NewRefitter(RefitOptions{
		Manager:    rig.mgr,
		Base:       bytesSource(rig.base),
		Pipeline:   fitOptions(),
		Registry:   rig.reg,
		MinRecords: minRecords,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

// TestRefitOnceFoldsWALAndPromotes: the full cycle — WAL records past
// the watermark trigger a fit over base+WAL, the bundle is published
// and promoted, the watermark advances durably, and the promoted
// bundle actually contains the online recipes.
func TestRefitOnceFoldsWALAndPromotes(t *testing.T) {
	ctx := context.Background()
	rig := newRefitRig(t, 1)
	for _, r := range walRecipes(t, 4) {
		if _, err := rig.mgr.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := rig.mgr.WAL().LastSeq()

	var promoted atomic.Int64
	rig.ref.opts.OnPromoted = func(out *pipeline.Output, gen storage.Generation) {
		promoted.Store(gen.ID)
		found := 0
		for _, d := range out.Docs {
			if len(d.RecipeID) >= 7 && d.RecipeID[:7] == "online-" {
				found++
			}
		}
		if found == 0 {
			t.Error("promoted model contains no online recipes")
		}
	}

	if !rig.ref.Due() {
		t.Fatal("refitter not due with records past the watermark")
	}
	gen, ran, err := rig.ref.RefitOnce(ctx)
	if err != nil || !ran {
		t.Fatalf("RefitOnce: ran=%v err=%v", ran, err)
	}
	if promoted.Load() != gen.ID {
		t.Fatalf("OnPromoted saw generation %d, RefitOnce returned %d", promoted.Load(), gen.ID)
	}
	cur, err := rig.reg.Promoted(ctx)
	if err != nil || cur.ID != gen.ID {
		t.Fatalf("registry promoted %d (%v), want %d", cur.ID, err, gen.ID)
	}
	if got := rig.mgr.Watermark(); got != snapshot {
		t.Fatalf("watermark = %d, want %d", got, snapshot)
	}
	if got, _ := pipeline.LoadIngestState(rig.walDir); got != snapshot {
		t.Fatalf("persisted watermark = %d, want %d", got, snapshot)
	}
	if st := rig.mgr.Status(); st.RefitState != RefitIdle || st.LastPromoted != gen.ID {
		t.Fatalf("status after refit = %+v", st)
	}

	// Caught up: nothing to do.
	if rig.ref.Due() {
		t.Fatal("refitter still due after catching up")
	}
	if _, ran, err := rig.ref.RefitOnce(ctx); ran || err != nil {
		t.Fatalf("caught-up RefitOnce ran=%v err=%v", ran, err)
	}
}

// TestRefitCrashConvergence: a crash after promotion but before the
// watermark save (the worst spot — work done, bookkeeping lost) must
// re-converge on the SAME generation: the deterministic stream and fit
// reproduce byte-identical bundle bytes, and Publish deduplicates by
// content digest instead of forking history.
func TestRefitCrashConvergence(t *testing.T) {
	ctx := context.Background()
	rig := newRefitRig(t, 1)
	for _, r := range walRecipes(t, 3) {
		if _, err := rig.mgr.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	gen1, ran, err := rig.ref.RefitOnce(ctx)
	if err != nil || !ran {
		t.Fatalf("first refit: ran=%v err=%v", ran, err)
	}

	// Simulate the crash: a fresh process whose watermark never made it
	// to disk re-runs the whole cycle over the same WAL.
	if err := os.Remove(filepath.Join(rig.walDir, pipeline.IngestWatermarkFile)); err != nil {
		t.Fatal(err)
	}
	mgr2, err := OpenManager(ManagerOptions{Dir: rig.walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if mgr2.Watermark() != 0 {
		t.Fatalf("rig leaked a watermark into the crash manager: %d", mgr2.Watermark())
	}
	ref2, err := NewRefitter(RefitOptions{
		Manager:  mgr2,
		Base:     bytesSource(rig.base),
		Pipeline: fitOptions(),
		Registry: rig.reg,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen2, ran, err := ref2.RefitOnce(ctx)
	if err != nil || !ran {
		t.Fatalf("re-run refit: ran=%v err=%v", ran, err)
	}
	if gen2.ID != gen1.ID || gen2.Digest != gen1.Digest {
		t.Fatalf("re-run forked history: %d/%s vs %d/%s", gen2.ID, gen2.Digest, gen1.ID, gen1.Digest)
	}
	cur, err := rig.reg.Promoted(ctx)
	if err != nil || cur.ID != gen1.ID {
		t.Fatalf("promoted = %d (%v), want %d", cur.ID, err, gen1.ID)
	}
}

// TestRefitFailureDegradesThenRecovers: a dead store fails the refit
// (reported on /statusz, watermark untouched) without poisoning
// anything — the next attempt with the store back converges normally.
func TestRefitFailureDegradesThenRecovers(t *testing.T) {
	ctx := context.Background()
	rig := newRefitRig(t, 1)
	for _, r := range walRecipes(t, 3) {
		if _, err := rig.mgr.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	rig.outage.on.Store(true)
	_, ran, err := rig.ref.RefitOnce(ctx)
	if err == nil || !ran {
		t.Fatalf("refit against a dead store: ran=%v err=%v", ran, err)
	}
	st := rig.mgr.Status()
	if st.RefitState != RefitFailed || st.RefitError == "" {
		t.Fatalf("status after failed refit = %+v", st)
	}
	if rig.mgr.Watermark() != 0 {
		t.Fatalf("failed refit advanced the watermark to %d", rig.mgr.Watermark())
	}
	if d := rig.ref.backoffDelay(); d <= 0 {
		t.Fatalf("no backoff after failure: %v", d)
	}

	rig.outage.on.Store(false)
	gen, ran, err := rig.ref.RefitOnce(ctx)
	if err != nil || !ran {
		t.Fatalf("recovery refit: ran=%v err=%v", ran, err)
	}
	if st := rig.mgr.Status(); st.RefitState != RefitIdle || st.LastPromoted != gen.ID {
		t.Fatalf("status after recovery = %+v", st)
	}
}

// TestRefitDueTriggers: the count trigger needs MinRecords; the age
// trigger fires earlier once the oldest pending record exceeds MaxAge.
func TestRefitDueTriggers(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	mgr, err := OpenManager(ManagerOptions{
		Dir:   t.TempDir(),
		Clock: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	ref, err := NewRefitter(RefitOptions{
		Manager:    mgr,
		Registry:   storage.NewRegistry(storage.NewKVStore()),
		MinRecords: 5,
		MaxAge:     time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Due() {
		t.Fatal("due with an empty log")
	}
	if _, err := mgr.Append(testRecipe(t, "due-0")); err != nil {
		t.Fatal(err)
	}
	if ref.Due() {
		t.Fatal("due below MinRecords and MaxAge")
	}
	now = now.Add(2 * time.Minute)
	if !ref.Due() {
		t.Fatal("age trigger did not fire")
	}
	now = now.Add(-2 * time.Minute)
	for i := 1; i < 5; i++ {
		if _, err := mgr.Append(testRecipe(t, fmt.Sprintf("due-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if !ref.Due() {
		t.Fatal("count trigger did not fire")
	}
}

// TestCombinedSourceDeterministic: the refit stream must yield
// byte-identical content every time it is opened — that determinism is
// the first link in the idempotent refit chain — and WAL records past
// the snapshot must stay out.
func TestCombinedSourceDeterministic(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ {
		if _, err := w.Append(testRecipe(t, fmt.Sprintf("cs-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	base := []byte(`{"id":"base-1","title":"ゼリー","ingredients":[{"name":"ゼラチン","amount":"5g"}]}` + "\n")
	snapshot := w.LastSeq()

	read := func() []byte {
		src := CombinedSource(bytesSource(base), dir, snapshot)
		rc, err := src()
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		b, err := io.ReadAll(rc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := read()
	if !bytes.Contains(first, []byte("base-1")) || !bytes.Contains(first, []byte("cs-2")) {
		t.Fatalf("combined stream missing content:\n%s", first)
	}

	// A record appended past the snapshot must not leak into a re-read.
	if _, err := w.Append(testRecipe(t, "cs-late")); err != nil {
		t.Fatal(err)
	}
	second := read()
	if !bytes.Equal(first, second) {
		t.Fatal("combined stream not byte-identical across opens")
	}
	if bytes.Contains(second, []byte("cs-late")) {
		t.Fatal("record past the snapshot leaked into the frozen stream")
	}

	// The stream is valid JSONL end to end.
	recs, rep, err := recipe.ReadJSONLenient(bytes.NewReader(first), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 0 || len(recs) != 4 {
		t.Fatalf("combined stream decoded to %d records (%d skipped)", len(recs), len(rep.Skipped))
	}
}
