package pipeline

import (
	"flag"
	"testing"
)

// TestFitFlagsShards: -shards sets the fit's worker count, and the
// options it builds validate beside -checkpoint-dir, since a
// multi-worker fit is one checkpointed chain.
func TestFitFlagsShards(t *testing.T) {
	fs := flag.NewFlagSet("fit", flag.ContinueOnError)
	f := RegisterFitFlags(fs)
	if err := fs.Parse([]string{"-shards", "2", "-checkpoint-dir", "ck"}); err != nil {
		t.Fatal(err)
	}
	opts := f.Options(nil)
	if err := opts.validate(); err != nil {
		t.Fatal(err)
	}
	if opts.ShardCount != 2 || opts.Checkpoint.Dir != "ck" {
		t.Fatalf("ShardCount %d, Checkpoint.Dir %q; want 2 and \"ck\"", opts.ShardCount, opts.Checkpoint.Dir)
	}
}
