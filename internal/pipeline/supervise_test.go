package pipeline

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/stats"
)

// superviseData draws a small three-topic corpus from the model's own
// generative process, big enough for a 40-sweep chain to stay stable.
func superviseData(docs int) *core.Data {
	rng := stats.NewRNG(41, 99)
	phi := [][]float64{
		{.30, .30, .30, .03, .03, .02, .01, .005, .005},
		{.01, .005, .005, .30, .30, .30, .03, .03, .02},
		{.03, .03, .02, .01, .005, .005, .30, .30, .30},
	}
	gelMeans := [][]float64{{3, 9}, {6, 9}, {9, 4}}
	emuMeans := [][]float64{{2, 8}, {8, 2}, {5, 5}}
	data := &core.Data{V: 9}
	for d := 0; d < docs; d++ {
		k := d % 3
		n := 2 + rng.IntN(4)
		words := make([]int, n)
		for i := range words {
			words[i] = rng.Categorical(phi[k])
		}
		data.Words = append(data.Words, words)
		data.Gel = append(data.Gel, []float64{rng.Normal(gelMeans[k][0], 0.25), rng.Normal(gelMeans[k][1], 0.25)})
		data.Emu = append(data.Emu, []float64{rng.Normal(emuMeans[k][0], 0.3), rng.Normal(emuMeans[k][1], 0.3)})
	}
	return data
}

func superviseConfig(iters int) core.Config {
	cfg := core.DefaultConfig()
	cfg.K = 3
	cfg.Iterations = iters
	cfg.BurnIn = iters / 2
	cfg.Seed = 9
	return cfg
}

// TestCheckpointHealthDigest covers the digest round trip: a clean
// trace stamps Healthy=true; a NaN in the trace flips it off both at
// write time and — defense in depth — when a forged header claims
// otherwise.
func TestCheckpointHealthDigest(t *testing.T) {
	_, _, snap := checkpointSnapshot(t)

	t.Run("healthy", func(t *testing.T) {
		dir := t.TempDir()
		if err := WriteCheckpointFile(dir, snap); err != nil {
			t.Fatal(err)
		}
		sn, h, err := LoadCheckpointWithHealth(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !h.Healthy || h.Sweep != snap.Sweep || sn.Sweep != snap.Sweep {
			t.Fatalf("digest = %+v, want healthy at sweep %d", h, snap.Sweep)
		}
		if math.IsNaN(h.LogLik) || math.IsInf(h.LogLik, 0) {
			t.Fatalf("digest log-likelihood %v not finite", h.LogLik)
		}
	})

	t.Run("derived-from-trace", func(t *testing.T) {
		// JSON cannot carry NaN, so a snapshot holding a non-finite trace
		// never reaches disk; the derivation itself must still flag it so
		// writers stamp Healthy=false instead of failing to encode.
		poisoned := *snap
		poisoned.LogLik = append(append([]float64(nil), snap.LogLik...), math.NaN())
		if h := snapshotHealth(&poisoned); h.Healthy || h.Reason == "" {
			t.Fatalf("snapshotHealth = %+v, want unhealthy with a reason", h)
		}
	})

	t.Run("unhealthy-header-gates-load", func(t *testing.T) {
		dir := t.TempDir()
		unhealthy := CheckpointHealth{Sweep: snap.Sweep, Healthy: false, Reason: "diverged"}
		if err := WriteCheckpointFileWithHealth(dir, snap, unhealthy); err != nil {
			t.Fatal(err)
		}
		// The plain loader still hands the snapshot back (crash-resume
		// compatibility)…
		if _, err := LoadCheckpointFile(dir); err != nil {
			t.Fatal(err)
		}
		// …but the supervisor's health-gated load refuses it.
		st := &FitCheckpointStore{Dir: dir}
		if _, err := st.LoadHealthy(); !errors.Is(err, ErrUnhealthyCheckpoint) {
			t.Fatalf("LoadHealthy error = %v, want ErrUnhealthyCheckpoint", err)
		}
	})

	t.Run("sanitizes-nonfinite-digest", func(t *testing.T) {
		dir := t.TempDir()
		// A digest stamped mid-divergence may carry a NaN log-likelihood;
		// the writer must keep the header JSON-encodable and record the
		// unhealthiness rather than erroring.
		bad := CheckpointHealth{Sweep: snap.Sweep, LogLik: math.NaN(), Healthy: true}
		if err := WriteCheckpointFileWithHealth(dir, snap, bad); err != nil {
			t.Fatal(err)
		}
		_, h, err := LoadCheckpointWithHealth(dir)
		if err != nil {
			t.Fatal(err)
		}
		if h.Healthy || math.IsNaN(h.LogLik) {
			t.Fatalf("digest = %+v, want unhealthy with a finite log-likelihood", h)
		}
	})
}

// syncCrashStore is FitCheckpointStore with a synchronous writer: the
// same "checkpoint.write" injection point and the same durable
// temp+rename WriteCheckpointFile, minus the background goroutine
// whose single-flight skipping would make WHICH write consumes the
// scripted fault racy on a fast chain. Load/discard delegate to the
// real store.
type syncCrashStore struct {
	FitCheckpointStore
	script *resilience.Script
}

func (st *syncCrashStore) Writer() (func(*core.Snapshot) error, func() error) {
	write := func(sn *core.Snapshot) error {
		if err := resilience.Inject(context.Background(), st.script, "checkpoint.write"); err != nil {
			return err
		}
		return WriteCheckpointFile(st.Dir, sn)
	}
	return write, func() error { return nil }
}

// TestSupervisedRollbackAfterCheckpointWriteCrash is the satellite
// crash test: a fault injected into the durable write path kills the
// sweep-20 checkpoint write; the error aborts the chain, the sweep-10
// checkpoint on disk must still be loadable, and the supervisor must
// resume from it and finish the fit.
func TestSupervisedRollbackAfterCheckpointWriteCrash(t *testing.T) {
	data := superviseData(40)
	cfg := superviseConfig(40)
	cfg.CheckpointEvery = 10
	dir := t.TempDir()

	script := resilience.NewScript()
	script.Queue("checkpoint.write", 1, resilience.Fault{})                                // sweep 10: succeeds
	script.Queue("checkpoint.write", 1, resilience.Fault{Err: errors.New("disk on fire")}) // sweep 20: fails

	st := &syncCrashStore{FitCheckpointStore: FitCheckpointStore{Dir: dir}, script: script}
	sv := &resilience.Supervisor{MaxRestarts: 2, Store: st}
	res, incidents, err := sv.RunFit(context.Background(), data, cfg, nil)
	if err != nil {
		t.Fatalf("supervised fit failed: %v (incidents %+v)", err, incidents)
	}
	if res == nil {
		t.Fatal("nil result from successful fit")
	}
	if len(incidents) != 1 {
		t.Fatalf("incidents = %+v, want exactly one", incidents)
	}
	inc := incidents[0]
	if inc.Action != resilience.ActionRollback || inc.ResumedFrom != 10 {
		t.Fatalf("incident = %+v, want a rollback resuming the surviving sweep-10 checkpoint", inc)
	}
	// The recovered attempt ran to completion writing checkpoints past
	// the crash point; the final one must be durable and healthy.
	sn, h, lerr := LoadCheckpointWithHealth(dir)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if !h.Healthy || sn.Sweep != 40 {
		t.Fatalf("final checkpoint sweep %d healthy=%v, want sweep 40 healthy", sn.Sweep, h.Healthy)
	}
}

// TestCheckpointWriterCrashLeavesPreviousCheckpoint is the
// writer-level half of the crash story: a failed write must surface as
// the sticky error AND leave the previously persisted checkpoint
// intact (temp + rename never tears the live file).
func TestCheckpointWriterCrashLeavesPreviousCheckpoint(t *testing.T) {
	_, _, snap := checkpointSnapshot(t)
	dir := t.TempDir()
	w := NewCheckpointWriter(dir, nil)
	script := resilience.NewScript()
	script.Queue("checkpoint.write", 1, resilience.Fault{})
	script.Queue("checkpoint.write", 1, resilience.Fault{Err: errors.New("torn write")})
	w.Injector = script

	if err := w.Write(snap); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	later := *snap
	later.Sweep = snap.Sweep + 4
	if err := w.Write(&later); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err == nil {
		t.Fatal("injected write failure not surfaced by Flush")
	}
	sn, err := LoadCheckpointFile(dir)
	if err != nil {
		t.Fatalf("previous checkpoint unloadable after failed write: %v", err)
	}
	if sn.Sweep != snap.Sweep {
		t.Fatalf("checkpoint sweep = %d, want the pre-crash %d", sn.Sweep, snap.Sweep)
	}
}

// TestSupervisedResumeSkipsUnhealthyCheckpoint: a startup -resume
// pointed at a diverged checkpoint must not resume it — the supervisor
// retires the file and starts fresh.
func TestSupervisedResumeSkipsUnhealthyCheckpoint(t *testing.T) {
	data := superviseData(30)
	cfg := superviseConfig(20)
	dir := t.TempDir()

	// A snapshot with a non-finite trace cannot even be JSON-encoded, so
	// a checkpoint written mid-divergence carries an explicit unhealthy
	// digest instead — forge one the way the writer would stamp it.
	_, _, snap := checkpointSnapshot(t)
	unhealthy := CheckpointHealth{
		Sweep:   snap.Sweep,
		Healthy: false,
		Reason:  "non-finite log-likelihood",
	}
	if err := WriteCheckpointFileWithHealth(dir, snap, unhealthy); err != nil {
		t.Fatal(err)
	}

	opts := Options{
		Model:      cfg,
		Supervise:  true,
		Checkpoint: CheckpointOptions{Dir: dir, Every: 10, Resume: true},
	}
	res, incidents, err := fitModel(data, opts)
	if err != nil {
		t.Fatalf("supervised fit failed: %v (incidents %+v)", err, incidents)
	}
	if res == nil || len(incidents) != 0 {
		t.Fatalf("want a clean fresh fit, got incidents %+v", incidents)
	}
	if _, err := os.Stat(filepath.Join(dir, CheckpointFile+".discarded")); err != nil {
		t.Fatalf("diverged checkpoint not retired to .discarded: %v", err)
	}
	// The fresh fit replaced the retired checkpoint with a healthy one
	// (the background writer may have skipped the final cadence point,
	// so only the digest and a positive sweep are pinned).
	sn, h, err := LoadCheckpointWithHealth(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Healthy || sn.Sweep < 10 {
		t.Fatalf("fresh fit's checkpoint sweep %d healthy=%v, want a healthy checkpoint at sweep ≥ 10", sn.Sweep, h.Healthy)
	}
}

// TestSupervisedRestartBudgetAsGiven: RunChain uses MaxRestarts as
// given. A chain that turns NaN at sweep 5 on every attempt runs
// exactly MaxRestarts+1 attempts: one with a budget of 0 (as
// -supervise -max-restarts 0 asks), four with DefaultOptions' 3.
func TestSupervisedRestartBudgetAsGiven(t *testing.T) {
	data := superviseData(40)
	cfg := superviseConfig(20)
	cfg.Health.Perturb = func(sweep int, ll float64) float64 {
		if sweep == 5 {
			return math.NaN()
		}
		return ll
	}
	for _, budget := range []int{0, DefaultOptions().MaxRestarts} {
		opts := Options{Model: cfg, Supervise: true, MaxRestarts: budget}
		_, incidents, err := RunChain(context.Background(), data, opts, nil)
		if !errors.Is(err, core.ErrUnhealthy) {
			t.Fatalf("MaxRestarts=%d: err = %v, want ErrUnhealthy", budget, err)
		}
		if len(incidents) != budget+1 || incidents[len(incidents)-1].Action != resilience.ActionGaveUp {
			t.Fatalf("MaxRestarts=%d: %d attempts (incidents %+v), want %d", budget, len(incidents), incidents, budget+1)
		}
	}
}

// TestSupervisedFitHealthMetrics: the supervised path must account for
// health events, restarts, and rolled-back sweeps in the registry.
func TestSupervisedFitHealthMetrics(t *testing.T) {
	data := superviseData(40)
	cfg := superviseConfig(40)
	var fired bool
	cfg.Health.Perturb = func(sweep int, ll float64) float64 {
		if sweep == 25 && !fired {
			fired = true
			return math.NaN()
		}
		return ll
	}
	reg := obs.NewRegistry()
	opts := Options{
		Model:       cfg,
		Supervise:   true,
		MaxRestarts: 3,
		Checkpoint:  CheckpointOptions{Dir: t.TempDir(), Every: 10},
		Metrics:     reg,
	}
	_, incidents, err := fitModel(data, opts)
	if err != nil {
		t.Fatalf("supervised fit failed: %v (incidents %+v)", err, incidents)
	}
	events := reg.Counter("fit_health_events_total", "", obs.Labels{"kind": "nan_loglik"}).Value()
	if events != 1 {
		t.Fatalf("fit_health_events_total{kind=nan_loglik} = %d, want 1", events)
	}
	restarts := reg.Counter("fit_restarts_total", "", nil).Value()
	if restarts != 1 {
		t.Fatalf("fit_restarts_total = %d, want 1", restarts)
	}
	// The fault fires at sweep 25; which checkpoint the rollback lands
	// on depends on the background writer's in-flight skips, so derive
	// the expected loss from the recorded incident instead of pinning it.
	if len(incidents) != 1 || incidents[0].Action != resilience.ActionRollback {
		t.Fatalf("incidents = %+v, want one rollback", incidents)
	}
	wantRolled := int64(incidents[0].Sweep - incidents[0].ResumedFrom)
	rolled := reg.Counter("fit_rollback_sweeps_total", "", nil).Value()
	if rolled != wantRolled || rolled <= 0 {
		t.Fatalf("fit_rollback_sweeps_total = %d, want %d (positive)", rolled, wantRolled)
	}
}

// TestOptionsRejectsIncoherentCombos: Run and RunOnRecipes refuse
// supervision settings with no defined semantics, typed as ErrOptions.
func TestOptionsRejectsIncoherentCombos(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"negative-max-restarts", func(o *Options) { o.MaxRestarts = -1 }},
		{"negative-sweep-timeout", func(o *Options) { o.SweepTimeout = -1 }},
		{"negative-max-ll-drop", func(o *Options) { o.MaxLLDrop = -0.5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			tc.mut(&opts)
			if _, err := Run(opts); !errors.Is(err, ErrOptions) {
				t.Fatalf("Run error = %v, want ErrOptions", err)
			}
			if _, err := RunOnRecipes(nil, opts); !errors.Is(err, ErrOptions) {
				t.Fatalf("RunOnRecipes error = %v, want ErrOptions", err)
			}
		})
	}
}
