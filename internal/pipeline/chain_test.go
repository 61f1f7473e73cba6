package pipeline

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/recipe"
)

// TestUnshardedFitMatchesCoreFit: the single-chain pipeline fit runs
// through the supervisor, which must be free when unsupervised. With
// and without a checkpoint directory the pipeline's model equals
// core.Fit on the same documents bit for bit: Y, θ, φ and the
// log-likelihood trace.
func TestUnshardedFitMatchesCoreFit(t *testing.T) {
	opts := testOptions()
	opts.UseW2VFilter = false
	opts.Model.Iterations = 30
	recipes := mustGenerate(t, opts)
	for _, ckDir := range []string{"", t.TempDir()} {
		opts.Checkpoint = CheckpointOptions{Dir: ckDir, Every: 7}
		out, err := RunOnRecipes(recipes, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ckDir != "" {
			if _, err := LoadCheckpointFile(ckDir); err != nil {
				t.Fatalf("the fit left no checkpoint: %v", err)
			}
		}
		data := &core.Data{V: out.Dict.Len()}
		for _, d := range out.Docs {
			data.Words = append(data.Words, d.TermIDs)
			data.Gel = append(data.Gel, d.Gel)
			data.Emu = append(data.Emu, d.Emulsion)
		}
		ref, err := core.Fit(data, opts.Model)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Model
		for d := range ref.Y {
			if got.Y[d] != ref.Y[d] {
				t.Fatalf("checkpoint dir %q: Y[%d] = %d, want %d", ckDir, d, got.Y[d], ref.Y[d])
			}
		}
		assertSameBits(t, "θ", got.Theta, ref.Theta)
		assertSameBits(t, "φ", got.Phi, ref.Phi)
		assertSameBits(t, "log-likelihood trace", [][]float64{got.LogLik}, [][]float64{ref.LogLik})
	}
}

func assertSameBits(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: %d values, want %d", name, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s[%d][%d] = %v, want %v", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestResumeRefusesUnusableCheckpoint: the supervisor resumes a
// checkpoint under the checkpoint's own seed, yet an unsupervised
// resume must still refuse what the plain resume refused: a damaged
// checkpoint and another seed's checkpoint. Supervised, the damaged one
// is retired and the fit starts fresh.
func TestResumeRefusesUnusableCheckpoint(t *testing.T) {
	opts := testOptions()
	opts.UseW2VFilter = false
	opts.Model.Iterations = 20
	recipes := mustGenerate(t, opts)
	dir := t.TempDir()
	opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 5}
	if _, err := RunOnRecipes(recipes, opts); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CheckpointFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	opts.Checkpoint.Resume = true
	foreign := opts
	foreign.Model.Seed++
	if _, err := RunOnRecipes(recipes, foreign); !errors.Is(err, core.ErrSnapshot) {
		t.Fatalf("unsupervised resume of another seed's checkpoint: %v, want ErrSnapshot", err)
	}

	bad := append([]byte(nil), good...)
	bad[len(bad)-10] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunOnRecipes(recipes, opts); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unsupervised resume of a damaged checkpoint: %v, want ErrCorrupt", err)
	}
	opts.Supervise = true
	if _, err := RunOnRecipes(recipes, opts); err != nil {
		t.Fatalf("supervised resume of a damaged checkpoint: %v, want a fresh fit", err)
	}
	if _, err := os.Stat(path + ".discarded"); err != nil {
		t.Fatalf("damaged checkpoint not retired: %v", err)
	}
}

// workerFitOptions is a small fit without the word2vec filter, for the
// multi-worker tests below.
func workerFitOptions(t *testing.T) (Options, []*recipe.Recipe) {
	t.Helper()
	opts := testOptions()
	opts.UseW2VFilter = false
	opts.Model.Iterations = 30
	return opts, mustGenerate(t, opts)
}

// fitBundle runs the pipeline and returns the bundle bytes it encodes.
func fitBundle(t *testing.T, recipes []*recipe.Recipe, opts Options) []byte {
	t.Helper()
	out, err := RunOnRecipes(recipes, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := out.EncodeBundle()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelFitWorkerCountInvariant: a multi-worker fit is one chain
// on the exact parallel kernel, whose draws do not depend on how the
// recipes are split, so the same seed gives byte-identical bundles at
// 2, 3 and 4 workers.
func TestParallelFitWorkerCountInvariant(t *testing.T) {
	opts, recipes := workerFitOptions(t)
	opts.ShardCount = 2
	want := fitBundle(t, recipes, opts)
	for _, workers := range []int{3, 4} {
		opts.ShardCount = workers
		if got := fitBundle(t, recipes, opts); !bytes.Equal(got, want) {
			t.Fatalf("%d workers: bundle differs from the 2-worker bundle", workers)
		}
	}
}

// TestParallelFitKillAndResume: a 2-worker fit stopped after its last
// checkpoint and resumed — at 2 workers or at 4 — lands on the bundle
// of an uninterrupted 2-worker fit, byte for byte.
func TestParallelFitKillAndResume(t *testing.T) {
	opts, recipes := workerFitOptions(t)
	opts.ShardCount = 2
	want := fitBundle(t, recipes, opts)

	for _, resumeWorkers := range []int{2, 4} {
		dir := t.TempDir()
		// The "killed" run: the same chain, stopped after sweep 20
		// with its checkpoint on disk.
		killed := opts
		killed.Model.Iterations = 20
		killed.Checkpoint = CheckpointOptions{Dir: dir, Every: 5}
		fitBundle(t, recipes, killed)
		sn, err := LoadCheckpointFile(dir)
		if err != nil || sn.Sweep == 0 || sn.Sweep > 20 {
			t.Fatalf("killed run left checkpoint %v (err %v)", sn, err)
		}

		resumed := opts
		resumed.ShardCount = resumeWorkers
		resumed.Checkpoint = CheckpointOptions{Dir: dir, Every: 5, Resume: true}
		resumed.Metrics = obs.NewRegistry()
		got := fitBundle(t, recipes, resumed)
		if resumed.Metrics.Counter("checkpoint_loads_total", "", nil).Value() != 1 {
			t.Fatalf("resume at %d workers loaded no checkpoint", resumeWorkers)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("resume at %d workers from sweep %d: bundle differs from the uninterrupted fit", resumeWorkers, sn.Sweep)
		}
	}
}

// TestResumeRefusesOtherKernel: a checkpoint of the sequential kernel
// cannot continue on the parallel one, nor can one that names no
// kernel, as older builds (the retired AD-LDA kernel among them) wrote.
// Unsupervised, the resume fails with core.ErrSnapshot, and for a
// snapshot without a kernel the error names the remedy; supervised, the
// checkpoint is retired and the fit starts fresh.
func TestResumeRefusesOtherKernel(t *testing.T) {
	opts, recipes := workerFitOptions(t)
	seqDir := t.TempDir()
	seq := opts
	seq.Checkpoint = CheckpointOptions{Dir: seqDir, Every: 5}
	fitBundle(t, recipes, seq)
	sn, err := LoadCheckpointFile(seqDir)
	if err != nil {
		t.Fatal(err)
	}
	noKernel := *sn
	noKernel.Kernel = ""
	noKernelDir := t.TempDir()
	if err := WriteCheckpointFile(noKernelDir, &noKernel); err != nil {
		t.Fatal(err)
	}

	par := opts
	par.ShardCount = 2
	fresh := fitBundle(t, recipes, par)
	for name, dir := range map[string]string{"sequential": seqDir, "ad-lda": noKernelDir} {
		par.Checkpoint = CheckpointOptions{Dir: dir, Every: 5, Resume: true}
		par.Supervise = false
		_, err := RunOnRecipes(recipes, par)
		if !errors.Is(err, core.ErrSnapshot) {
			t.Fatalf("%s checkpoint, unsupervised: %v, want ErrSnapshot", name, err)
		}
		if dir == noKernelDir && !strings.Contains(err.Error(), "delete the checkpoint or run without -resume") {
			t.Fatalf("%s checkpoint: %v does not name the remedy", name, err)
		}
		par.Supervise = true
		if got := fitBundle(t, recipes, par); !bytes.Equal(got, fresh) {
			t.Fatalf("%s checkpoint, supervised: the fit did not start fresh", name)
		}
		if _, err := os.Stat(filepath.Join(dir, CheckpointFile+".discarded")); err != nil {
			t.Fatalf("%s checkpoint not retired: %v", name, err)
		}
	}
}

// TestOptionsValidateSharding: a multi-worker fit takes a checkpoint
// directory and LearnAlpha like any chain; only a negative count is
// refused.
func TestOptionsValidateSharding(t *testing.T) {
	o := testOptions()
	o.ShardCount = 4
	o.Checkpoint.Dir = "x"
	o.Model.LearnAlpha = true
	if err := o.validate(); err != nil {
		t.Fatalf("multi-worker options rejected: %v", err)
	}
	o.ShardCount = -1
	if err := o.validate(); !errors.Is(err, ErrOptions) {
		t.Fatalf("negative ShardCount: want ErrOptions, got %v", err)
	}
}
