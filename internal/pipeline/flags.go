package pipeline

import (
	"flag"
	"log/slog"
	"time"
)

// FitFlags holds the fit flags texturetopics and textureserver share.
// RegisterFitFlags declares them; after parsing, Options builds the
// fit's Options from them.
type FitFlags struct {
	scale           float64
	iters           int
	checkpointDir   string
	checkpointEvery int
	resume          bool
	supervise       bool
	maxRestarts     int
	sweepTimeout    time.Duration
	maxLLDrop       float64
	shards          int
	logEvery        int
}

// RegisterFitFlags declares the shared fit flags on fs.
func RegisterFitFlags(fs *flag.FlagSet) *FitFlags {
	f := &FitFlags{}
	fs.Float64Var(&f.scale, "scale", 1.0, "corpus scale relative to the paper's ~3,000 recipes")
	fs.IntVar(&f.iters, "iters", 300, "Gibbs sweeps")
	fs.StringVar(&f.checkpointDir, "checkpoint-dir", "", "write crash-safe fit checkpoints into this directory")
	fs.IntVar(&f.checkpointEvery, "checkpoint-every", 25, "sweeps between checkpoints (with -checkpoint-dir)")
	fs.BoolVar(&f.resume, "resume", false, "resume the fit from -checkpoint-dir if a checkpoint exists")
	fs.BoolVar(&f.supervise, "supervise", false, "give the fit a restart budget and health thresholds: an unhealthy chain rolls back to its last healthy checkpoint or restarts reseeded")
	fs.IntVar(&f.maxRestarts, "max-restarts", 3, "supervised recovery attempts after the first (with -supervise)")
	fs.DurationVar(&f.sweepTimeout, "sweep-timeout", 0, "supervised stall watchdog: abort a sweep exceeding this duration (0 disables)")
	fs.Float64Var(&f.maxLLDrop, "max-ll-drop", 0, "supervised divergence threshold: abort when log-likelihood drops this far below the best sweep (0 disables)")
	fs.IntVar(&f.shards, "shards", 1, "Gibbs workers of the one chain; above 1 runs the exact parallel kernel")
	fs.IntVar(&f.logEvery, "log-every", 50, "log fitting progress every N sweeps (0 disables; texturetopics logs only with -v)")
	return f
}

// Options returns DefaultOptions with the flags applied; with a
// non-nil logger the fit logs its progress every -log-every sweeps.
func (f *FitFlags) Options(logger *slog.Logger) Options {
	o := DefaultOptions()
	o.Corpus.Scale = f.scale
	o.Model.Iterations = f.iters
	o.Model.Hooks = SweepProgress(logger, f.logEvery)
	o.Checkpoint = CheckpointOptions{Dir: f.checkpointDir, Every: f.checkpointEvery, Resume: f.resume}
	o.Supervise = f.supervise
	o.MaxRestarts = f.maxRestarts
	o.SweepTimeout = f.sweepTimeout
	o.MaxLLDrop = f.maxLLDrop
	o.ShardCount = f.shards
	return o
}
