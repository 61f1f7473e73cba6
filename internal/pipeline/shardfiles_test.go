package pipeline

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// shardStatsFixture fits a small shard chain and returns its mergeable
// statistics plus the priors needed to restore them from disk.
func shardStatsFixture(t testing.TB) (*core.ShardStats, *stats.NormalWishart, *stats.NormalWishart) {
	t.Helper()
	data := superviseData(18)
	cfg := superviseConfig(20)
	gp, ep, err := core.EmpiricalPriors(data)
	if err != nil {
		t.Fatal(err)
	}
	cfg.GelPrior, cfg.EmuPrior = gp, ep
	s, err := core.NewSampler(data.Slice(0, 12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	return s.ShardStats(0), gp, ep
}

func TestShardStatsFileRoundTrip(t *testing.T) {
	st, gp, ep := shardStatsFixture(t)
	dir := t.TempDir()
	digest, err := WriteShardStatsFile(dir, "shard-0.stats", st)
	if err != nil {
		t.Fatal(err)
	}
	if digest == "" {
		t.Fatal("empty digest")
	}
	got, err := LoadShardStatsFile(dir, "shard-0.stats", digest, gp, ep)
	if err != nil {
		t.Fatal(err)
	}
	var want, have bytes.Buffer
	if err := st.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteJSON(&have); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), have.Bytes()) {
		t.Fatal("restored shard stats differ from the originals")
	}
}

func TestShardStatsFileDigestMismatch(t *testing.T) {
	st, gp, ep := shardStatsFixture(t)
	dir := t.TempDir()
	if _, err := WriteShardStatsFile(dir, "shard-0.stats", st); err != nil {
		t.Fatal(err)
	}
	_, err := LoadShardStatsFile(dir, "shard-0.stats",
		"0000000000000000000000000000000000000000000000000000000000000000", gp, ep)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt on manifest/file digest mismatch, got %v", err)
	}
}

func TestShardStatsFileBitFlip(t *testing.T) {
	st, gp, ep := shardStatsFixture(t)
	dir := t.TempDir()
	digest, err := WriteShardStatsFile(dir, "shard-0.stats", st)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "shard-0.stats")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-8] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardStatsFile(dir, "shard-0.stats", digest, gp, ep); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt on flipped payload byte, got %v", err)
	}
}

func TestShardStatsFileWrongKind(t *testing.T) {
	_, gp, ep := shardStatsFixture(t)
	dir := t.TempDir()
	m := validManifest()
	if err := SaveShardManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardStatsFile(dir, ShardManifestFile, "", gp, ep); !errors.Is(err, ErrKind) {
		t.Fatalf("want ErrKind loading a manifest as shard stats, got %v", err)
	}
}

func validManifest() *ShardManifest {
	return &ShardManifest{
		Identity: ShardIdentity{NumDocs: 10, V: 9, K: 3, Iterations: 40, BurnIn: 20, Seed: 9, ShardCount: 2},
		Shards: []ShardEntry{
			{Lo: 0, Hi: 5, Seed: 9, State: ShardFitted, File: "shard-a.stats", Digest: "abc123"},
			{Lo: 5, Hi: 10, Seed: 11, State: ShardPending},
		},
	}
}

func TestShardManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := validManifest()
	if err := SaveShardManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadShardManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("manifest round trip mismatch:\nwant %+v\ngot  %+v", m, got)
	}
}

func TestLoadShardManifestMissing(t *testing.T) {
	if _, err := LoadShardManifest(t.TempDir()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want fs.ErrNotExist for an empty shard dir, got %v", err)
	}
}

func TestLoadShardManifestCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := SaveShardManifest(dir, validManifest()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ShardManifestFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardManifest(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt on flipped manifest byte, got %v", err)
	}
}

func TestShardManifestValidate(t *testing.T) {
	damage := map[string]func(*ShardManifest){
		"no shards":       func(m *ShardManifest) { m.Shards = nil },
		"gap":             func(m *ShardManifest) { m.Shards[1].Lo = 6 },
		"overlap":         func(m *ShardManifest) { m.Shards[1].Lo = 4 },
		"empty range":     func(m *ShardManifest) { m.Shards[0].Hi = 0 },
		"short coverage":  func(m *ShardManifest) { m.Shards[1].Hi = 9 },
		"unknown state":   func(m *ShardManifest) { m.Shards[0].State = "running" },
		"fitted no file":  func(m *ShardManifest) { m.Shards[0].File = "" },
		"path escape":     func(m *ShardManifest) { m.Shards[0].File = "../evil.stats" },
		"absolute path":   func(m *ShardManifest) { m.Shards[0].File = "/tmp/evil.stats" },
		"out of order":    func(m *ShardManifest) { m.Shards[0], m.Shards[1] = m.Shards[1], m.Shards[0] },
		"fitted no diges": func(m *ShardManifest) { m.Shards[0].Digest = "" },
	}
	if err := validManifest().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	for name, mut := range damage {
		m := validManifest()
		mut(m)
		if err := m.Validate(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

func TestOptionsValidateSharding(t *testing.T) {
	base := func() Options {
		o := testOptions()
		o.ShardCount = 4
		return o
	}
	cases := map[string]func(*Options){
		"negative shards":     func(o *Options) { o.ShardCount = -1 },
		"negative retries":    func(o *Options) { o.ShardRetries = -1 },
		"negative straggler":  func(o *Options) { o.StragglerTimeout = -1 },
		"shards+checkpoint":   func(o *Options) { o.Checkpoint.Dir = "x" },
		"shards+learn alpha":  func(o *Options) { o.Model.LearnAlpha = true },
		"shard dir unsharded": func(o *Options) { o.ShardCount = 1; o.ShardDir = "x" },
	}
	good := base()
	if err := good.validate(); err != nil {
		t.Fatalf("sharded options rejected: %v", err)
	}
	for name, mut := range cases {
		o := base()
		mut(&o)
		if err := o.validate(); !errors.Is(err, ErrOptions) {
			t.Errorf("%s: want ErrOptions, got %v", name, err)
		}
	}
}
