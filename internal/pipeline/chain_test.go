package pipeline

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
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
