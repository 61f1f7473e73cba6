package pipeline

import (
	"flag"
	"testing"
)

// TestFitFlagsShardDirNeedsShards: textureserver keeps its ingest
// watermark under -shard-dir, so -shard-dir with the default -shards 1
// must build options that validate (the shard directory is dropped);
// with -shards 2 the directory serves the sharded fit.
func TestFitFlagsShardDirNeedsShards(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantDir string
	}{
		{[]string{"-shard-dir", "shards"}, ""},
		{[]string{"-shard-dir", "shards", "-shards", "2"}, "shards"},
	} {
		fs := flag.NewFlagSet("fit", flag.ContinueOnError)
		f := RegisterFitFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		opts := f.Options(nil)
		if err := opts.validate(); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if opts.ShardDir != tc.wantDir {
			t.Fatalf("%v: ShardDir = %q, want %q", tc.args, opts.ShardDir, tc.wantDir)
		}
	}
}
