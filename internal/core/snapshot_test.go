package core

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"
)

func snapshotTestConfig() Config {
	return Config{
		K:              3,
		Alpha:          0.1,
		Gamma:          0.1,
		Iterations:     40,
		BurnIn:         10,
		UseEmulsion:    true,
		EmulsionWeight: 1,
		Seed:           5,
	}
}

// errKilled simulates the process dying mid-fit: the checkpoint hook
// returns it at the chosen sweep, aborting Run with state already
// persisted — exactly what a crash after a checkpoint write looks like.
var errKilled = errors.New("simulated crash")

// runKilled runs a fresh chain that checkpoints every sweep and "dies"
// after killAt sweeps, returning the snapshot the crash left behind.
func runKilled(t *testing.T, data *Data, cfg Config, killAt int) *Snapshot {
	t.Helper()
	var snap *Snapshot
	cfg.CheckpointEvery = 1
	cfg.CheckpointFunc = func(sn *Snapshot) error {
		if sn.Sweep == killAt {
			snap = sn
			return errKilled
		}
		return nil
	}
	s, err := NewSampler(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); !errors.Is(err, errKilled) {
		t.Fatalf("run should have died at sweep %d, got err %v", killAt, err)
	}
	if snap == nil || snap.Sweep != killAt {
		t.Fatalf("no snapshot captured at sweep %d", killAt)
	}
	return snap
}

// runUninterrupted runs the same chain start to finish and returns the
// live sampler so Z (not exposed on Result) can be compared.
func runUninterrupted(t *testing.T, data *Data, cfg Config) *Sampler {
	t.Helper()
	s, err := NewSampler(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCrashResumeDeterminism is the acceptance criterion: a chain
// killed between sweeps and resumed from its checkpoint produces
// byte-identical Z/Y assignments and log-likelihood trace to an
// uninterrupted run, across every sampler mode. The snapshot also
// passes through its JSON wire format, so serialization exactness is
// covered by the same assertion.
func TestCrashResumeDeterminism(t *testing.T) {
	modes := []struct {
		name string
		mut  func(*Config)
	}{
		{"sequential", func(c *Config) {}},
		{"parallel-4", func(c *Config) { c.Workers = 4 }},
		{"collapsed", func(c *Config) { c.Collapsed = true }},
		{"learn-alpha", func(c *Config) { c.LearnAlpha = true; c.BurnIn = 5 }},
	}
	// The kill sweep is random per mode (seeded, so failures reproduce).
	// It is drawn here, before the parallel subtests start, so the
	// shared generator is never used concurrently and each mode always
	// gets the same sweep.
	pick := rand.New(rand.NewPCG(42, 0))
	for _, mode := range modes {
		cfg := snapshotTestConfig()
		mode.mut(&cfg)
		killAt := 1 + pick.IntN(cfg.Iterations-2)
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			data, _ := synthData(7, 60)

			want := runUninterrupted(t, data, cfg)
			snap := runKilled(t, data, cfg, killAt)

			// Round-trip the snapshot through its wire format, as a real
			// crash-recovery would.
			var buf bytes.Buffer
			if err := snap.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadSnapshotJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}

			resumed, err := ResumeSampler(data, cfg, loaded)
			if err != nil {
				t.Fatal(err)
			}
			if got := resumed.CompletedSweeps(); got != killAt {
				t.Fatalf("resumed sampler at sweep %d, want %d", got, killAt)
			}
			if err := resumed.Run(); err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(want.Z, resumed.Z) {
				t.Errorf("Z diverged after resume at sweep %d", killAt)
			}
			if !reflect.DeepEqual(want.Y, resumed.Y) {
				t.Errorf("Y diverged after resume at sweep %d", killAt)
			}
			if len(want.LogLik) != len(resumed.LogLik) {
				t.Fatalf("loglik trace length %d vs %d", len(resumed.LogLik), len(want.LogLik))
			}
			for i := range want.LogLik {
				if want.LogLik[i] != resumed.LogLik[i] {
					t.Fatalf("loglik[%d] = %v after resume, want exactly %v (killed at %d)",
						i, resumed.LogLik[i], want.LogLik[i], killAt)
				}
			}
			if a, b := want.cfg.Alpha, resumed.cfg.Alpha; a != b {
				t.Errorf("α diverged: %v vs %v", b, a)
			}
			// And the user-visible estimates agree exactly too.
			we, re := want.Estimate(), resumed.Estimate()
			if !reflect.DeepEqual(we.Phi, re.Phi) {
				t.Error("φ diverged after resume")
			}
			if !reflect.DeepEqual(we.Theta, re.Theta) {
				t.Error("θ diverged after resume")
			}
		})
	}
}

// TestResumeFitExtendsChain: resuming with a larger iteration budget
// legally extends the chain past the original schedule.
func TestResumeFitExtendsChain(t *testing.T) {
	cfg := snapshotTestConfig()
	data, _ := synthData(3, 50)
	snap := runKilled(t, data, cfg, cfg.Iterations/2)
	longer := cfg
	longer.Iterations = cfg.Iterations + 10
	s, err := ResumeSampler(data, longer, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if res := s.Estimate(); len(res.LogLik) != longer.Iterations {
		t.Fatalf("extended chain has %d sweeps of trace, want %d", len(res.LogLik), longer.Iterations)
	}
}

// TestCheckpointCadence: CheckpointEvery=n emits snapshots exactly at
// sweeps n, 2n, … and each is a deep copy (mutating the chain after
// the callback does not reach into an already-captured snapshot).
func TestCheckpointCadence(t *testing.T) {
	cfg := snapshotTestConfig()
	cfg.Iterations = 20
	cfg.CheckpointEvery = 6
	var sweeps []int
	var first *Snapshot
	var firstZ [][]int
	cfg.CheckpointFunc = func(sn *Snapshot) error {
		sweeps = append(sweeps, sn.Sweep)
		if first == nil {
			first = sn
			firstZ = make([][]int, len(sn.Z))
			for d := range sn.Z {
				firstZ[d] = append([]int(nil), sn.Z[d]...)
			}
		}
		return nil
	}
	data, _ := synthData(11, 40)
	s, err := NewSampler(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{6, 12, 18}; !reflect.DeepEqual(sweeps, want) {
		t.Fatalf("checkpoints at %v, want %v", sweeps, want)
	}
	if !reflect.DeepEqual(first.Z, firstZ) {
		t.Error("snapshot Z mutated by the chain after capture — not a deep copy")
	}
}

// TestResumeSamplerRejectsMismatch: every identity field the restore
// path guards is actually guarded, with ErrSnapshot inspectable.
func TestResumeSamplerRejectsMismatch(t *testing.T) {
	cfg := snapshotTestConfig()
	data, _ := synthData(7, 60)
	snap := runKilled(t, data, cfg, 10)

	cases := []struct {
		name string
		mut  func(cfg *Config, sn *Snapshot, data *Data)
	}{
		{"seed", func(c *Config, sn *Snapshot, d *Data) { c.Seed++ }},
		{"workers", func(c *Config, sn *Snapshot, d *Data) { c.Workers = 4 }},
		{"kernel", func(c *Config, sn *Snapshot, d *Data) { sn.Kernel = kernelParallel }},
		{"no-kernel", func(c *Config, sn *Snapshot, d *Data) { sn.Kernel = "" }},
		{"collapsed", func(c *Config, sn *Snapshot, d *Data) { c.Collapsed = true }},
		{"topics", func(c *Config, sn *Snapshot, d *Data) { c.K = 5 }},
		{"future-format", func(c *Config, sn *Snapshot, d *Data) { sn.FormatVersion = 99 }},
		{"docs", func(c *Config, sn *Snapshot, d *Data) { sn.Z = sn.Z[:10]; sn.Y = sn.Y[:10]; sn.Docs = 10 }},
		{"topic-out-of-range", func(c *Config, sn *Snapshot, d *Data) { sn.Y[0] = 99 }},
		{"alpha", func(c *Config, sn *Snapshot, d *Data) { sn.Alpha = -1 }},
		{"components", func(c *Config, sn *Snapshot, d *Data) { sn.GelComp = sn.GelComp[:1] }},
		{"ragged-precision", func(c *Config, sn *Snapshot, d *Data) { p := sn.GelComp[0].Precision; p[1] = p[1][:1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			var buf bytes.Buffer
			if err := snap.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			sn, err := ReadSnapshotJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}
			tc.mut(&c, sn, data)
			if _, err := ResumeSampler(data, c, sn); !errors.Is(err, ErrSnapshot) {
				t.Fatalf("mismatch %q not rejected with ErrSnapshot; got %v", tc.name, err)
			}
		})
	}
}

// TestReadSnapshotJSONFutureVersion: the reader itself refuses future
// formats before any restore is attempted.
func TestReadSnapshotJSONFutureVersion(t *testing.T) {
	if _, err := ReadSnapshotJSON(bytes.NewReader([]byte(`{"format_version": 99}`))); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("future snapshot format accepted: %v", err)
	}
}
