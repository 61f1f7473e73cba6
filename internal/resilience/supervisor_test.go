package resilience

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// supervisorData draws a small well-separated synthetic corpus from
// the model's generative process (three topics owning disjoint words).
func supervisorData(docs int) *core.Data {
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

func supervisorConfig(iters int) core.Config {
	cfg := core.DefaultConfig()
	cfg.K = 3
	cfg.Iterations = iters
	cfg.BurnIn = iters / 2
	cfg.Seed = 9
	return cfg
}

// memStore is an in-memory CheckpointStore with synchronous writes.
type memStore struct {
	mu       sync.Mutex
	snap     *core.Snapshot
	discards []string
}

func (m *memStore) Writer() (func(*core.Snapshot) error, func() error) {
	write := func(sn *core.Snapshot) error {
		m.mu.Lock()
		m.snap = sn
		m.mu.Unlock()
		return nil
	}
	return write, func() error { return nil }
}

func (m *memStore) LoadHealthy() (*core.Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap == nil {
		return nil, errors.New("memStore: no checkpoint")
	}
	return m.snap, nil
}

func (m *memStore) Discard(reason string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snap = nil
	m.discards = append(m.discards, reason)
	return nil
}

// TestSupervisorRollbackThenIdenticalResult is the divergence-injection
// acceptance test: a seeded fault poisons the log-likelihood at sweep
// 25 exactly once; the supervisor must detect the collapse, roll back
// to the sweep-20 checkpoint, and — because a rollback replays the
// checkpoint's own RNG stream — finish with estimates byte-identical
// to an unperturbed fit.
func TestSupervisorRollbackThenIdenticalResult(t *testing.T) {
	data := supervisorData(60)
	base := supervisorConfig(40)
	base.CheckpointEvery = 10

	// Reference: the same chain with no fault and no supervision.
	plain := base
	plain.CheckpointEvery = 0
	want, err := core.Fit(data, plain)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	var fired atomic.Bool
	cfg.Health = core.HealthPolicy{
		MaxLLDrop: 500,
		Perturb: func(sweep int, ll float64) float64 {
			if sweep == 25 && fired.CompareAndSwap(false, true) {
				return ll - 1e6
			}
			return ll
		},
	}
	store := &memStore{}
	sv := &Supervisor{MaxRestarts: 3, Store: store}
	got, incidents, err := sv.RunFit(context.Background(), data, cfg, nil)
	if err != nil {
		t.Fatalf("supervised fit failed: %v (incidents: %+v)", err, incidents)
	}
	if len(incidents) != 1 {
		t.Fatalf("incidents = %+v, want exactly one", incidents)
	}
	inc := incidents[0]
	if inc.Kind != string(core.HealthLogLikCollapse) || inc.Action != ActionRollback || inc.ResumedFrom != 20 || inc.Sweep != 25 {
		t.Fatalf("incident = %+v, want loglik_collapse at sweep 25 rolled back to 20", inc)
	}

	// Replay determinism: every estimate matches the unperturbed chain.
	if !reflect.DeepEqual(got.Phi, want.Phi) {
		t.Error("Phi differs from the unperturbed fit")
	}
	if !reflect.DeepEqual(got.Theta, want.Theta) {
		t.Error("Theta differs from the unperturbed fit")
	}
	if !reflect.DeepEqual(got.Y, want.Y) {
		t.Error("Y differs from the unperturbed fit")
	}
	if !reflect.DeepEqual(got.LogLik, want.LogLik) {
		t.Error("LogLik trace differs from the unperturbed fit")
	}
	if !reflect.DeepEqual(got.Gel, want.Gel) || !reflect.DeepEqual(got.Emu, want.Emu) {
		t.Error("components differ from the unperturbed fit")
	}
}

// TestSupervisorBudgetExhausted: a standing NaN fault can never be
// outrun; the supervisor must spend its restart budget and fail with
// the full incident history, inspectable down to core.ErrUnhealthy.
func TestSupervisorBudgetExhausted(t *testing.T) {
	data := supervisorData(30)
	cfg := supervisorConfig(20)
	cfg.Health = core.HealthPolicy{
		Perturb: func(sweep int, ll float64) float64 {
			if sweep == 5 {
				return math.NaN()
			}
			return ll
		},
	}
	sv := &Supervisor{MaxRestarts: 2}
	res, incidents, err := sv.RunFit(context.Background(), data, cfg, nil)
	if err == nil || res != nil {
		t.Fatal("supervised fit succeeded under a standing NaN fault")
	}
	var fe *FitError
	if !errors.As(err, &fe) {
		t.Fatalf("error %T is not a *FitError: %v", err, err)
	}
	if !errors.Is(err, core.ErrUnhealthy) {
		t.Fatalf("FitError does not unwrap to core.ErrUnhealthy: %v", err)
	}
	if len(incidents) != 3 || len(fe.Incidents) != 3 {
		t.Fatalf("incidents = %+v, want 3 (initial + 2 restarts)", incidents)
	}
	for i, inc := range incidents {
		if inc.Kind != string(core.HealthNaNLogLik) || inc.Sweep != 5 {
			t.Fatalf("incident %d = %+v, want nan_loglik at sweep 5", i, inc)
		}
	}
	for _, inc := range incidents[:2] {
		if inc.Action != ActionRestart || inc.ResumedFrom != -1 {
			t.Fatalf("non-final incident %+v, want a fresh restart", inc)
		}
	}
	if incidents[2].Action != ActionGaveUp {
		t.Fatalf("final incident %+v, want gave_up", incidents[2])
	}
}

// TestSupervisorFreshRestartsReseed: without a checkpoint store every
// recovery is a fresh chain with a stride-offset seed, so a divergence
// born of RNG bad luck is not replayed verbatim.
func TestSupervisorFreshRestartsReseed(t *testing.T) {
	data := supervisorData(30)
	cfg := supervisorConfig(15)
	var mu sync.Mutex
	var seeds []uint64
	var fail atomic.Bool
	fail.Store(true)
	cfg.Health = core.HealthPolicy{
		Perturb: func(sweep int, ll float64) float64 {
			if sweep == 2 && fail.Swap(false) {
				return math.NaN()
			}
			return ll
		},
	}
	// With Store nil the supervisor leaves CheckpointFunc alone, so the
	// snapshots it emits reveal each attempt's effective seed.
	cfg.CheckpointEvery = 5
	cfg.CheckpointFunc = func(sn *core.Snapshot) error {
		mu.Lock()
		defer mu.Unlock()
		seeds = append(seeds, sn.Seed)
		return nil
	}
	sv := &Supervisor{MaxRestarts: 1}
	_, incidents, err := sv.RunFit(context.Background(), data, cfg, nil)
	if err != nil {
		t.Fatalf("fit failed: %v (incidents %+v)", err, incidents)
	}
	if len(incidents) != 1 || incidents[0].Action != ActionRestart {
		t.Fatalf("incidents = %+v, want one fresh restart", incidents)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seeds) == 0 {
		t.Fatal("no checkpoints observed")
	}
	for _, s := range seeds {
		if s == cfg.Seed {
			t.Fatalf("restarted chain kept seed %d; want a stride-offset reseed", s)
		}
	}
}

// TestSupervisorBurnedCheckpointEscalates: when resuming the same
// checkpoint fails twice, the supervisor must discard it and escalate
// to a fresh reseeded restart instead of looping on poisoned state.
func TestSupervisorBurnedCheckpointEscalates(t *testing.T) {
	data := supervisorData(40)
	cfg := supervisorConfig(40)
	cfg.CheckpointEvery = 10
	cfg.Health = core.HealthPolicy{
		Perturb: func(sweep int, ll float64) float64 {
			if sweep >= 25 {
				return math.NaN() // standing fault: no trajectory survives
			}
			return ll
		},
	}
	store := &memStore{}
	sv := &Supervisor{MaxRestarts: 3, Store: store}
	_, incidents, err := sv.RunFit(context.Background(), data, cfg, nil)
	if err == nil {
		t.Fatal("fit succeeded under a standing fault")
	}
	if len(incidents) != 4 {
		t.Fatalf("incidents = %+v, want 4", incidents)
	}
	if incidents[0].Action != ActionRollback || incidents[0].ResumedFrom != 20 {
		t.Fatalf("incident 0 = %+v, want rollback to sweep 20", incidents[0])
	}
	if incidents[1].Action != ActionRestart {
		t.Fatalf("incident 1 = %+v, want escalation to a fresh restart after the burned checkpoint", incidents[1])
	}
	if len(store.discards) != 1 {
		t.Fatalf("discards = %v, want exactly one (the burned checkpoint)", store.discards)
	}
	if incidents[3].Action != ActionGaveUp {
		t.Fatalf("final incident = %+v, want gave_up", incidents[3])
	}
}

// TestSupervisorWatchdogRecoversStall: the out-of-band watchdog must
// convert a hung sweep into a typed sweep_stall incident and the next
// attempt — no longer stalling — must complete.
func TestSupervisorWatchdogRecoversStall(t *testing.T) {
	data := supervisorData(30)
	cfg := supervisorConfig(10)
	var stallOnce atomic.Bool
	stallOnce.Store(true)
	cfg.Hooks = core.SweepHooks{OnSweep: func(core.SweepStats) {
		if stallOnce.Swap(false) {
			time.Sleep(400 * time.Millisecond)
		}
	}}
	cfg.Health.SweepTimeout = 50 * time.Millisecond
	sv := &Supervisor{MaxRestarts: 1}
	res, incidents, err := sv.RunFit(context.Background(), data, cfg, nil)
	if err != nil {
		t.Fatalf("fit failed: %v (incidents %+v)", err, incidents)
	}
	if res == nil {
		t.Fatal("nil result from successful fit")
	}
	if len(incidents) != 1 || incidents[0].Kind != string(core.HealthSweepStall) {
		t.Fatalf("incidents = %+v, want one sweep_stall", incidents)
	}
}

// TestSupervisorContextCancel: a canceled context stops the fit with a
// gave_up incident rather than burning the restart budget.
func TestSupervisorContextCancel(t *testing.T) {
	data := supervisorData(30)
	cfg := supervisorConfig(5000) // long enough to be mid-run when canceled
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Hooks = core.SweepHooks{OnSweep: func(st core.SweepStats) {
		if st.Sweep == 3 {
			cancel()
		}
	}}
	sv := &Supervisor{MaxRestarts: 5}
	_, incidents, err := sv.RunFit(ctx, data, cfg, nil)
	if err == nil {
		t.Fatal("fit succeeded despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if len(incidents) != 1 || incidents[0].Action != ActionGaveUp {
		t.Fatalf("incidents = %+v, want one gave_up", incidents)
	}
}
