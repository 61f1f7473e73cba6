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
	shardDir        string
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
	fs.IntVar(&f.shards, "shards", 1, "fit the corpus as this many shards merged by sufficient statistics")
	fs.StringVar(&f.shardDir, "shard-dir", "", "durable shard manifest + statistics directory; a killed sharded fit resumes from it (textureserver also keeps its ingest watermark here)")
	fs.IntVar(&f.logEvery, "log-every", 50, "log fitting progress every N sweeps (0 disables; texturetopics logs only with -v)")
	return f
}

// Options returns DefaultOptions with the flags applied; with a
// non-nil logger the fit logs its progress every -log-every sweeps.
// ShardDir is set only for a sharded fit (-shards > 1): textureserver
// keeps its ingest watermark under -shard-dir, so a single-chain fit
// must accept one.
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
	if f.shards > 1 {
		o.ShardDir = f.shardDir
	}
	return o
}

// ShardDir returns -shard-dir whatever -shards says: textureserver
// keeps its ingest watermark there even for a single-chain fit.
func (f *FitFlags) ShardDir() string { return f.shardDir }
