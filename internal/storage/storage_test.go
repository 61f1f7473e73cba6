package storage

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
)

// fakeBundle builds a minimal valid RHEODUR1 bundle container around
// payload. The storage layer never decodes the model inside a bundle,
// so tests can use tiny synthetic payloads instead of fitting models —
// and the hand-rolled envelope doubles as a format-stability check
// against pipeline.BundleDigest.
func fakeBundle(t testing.TB, payload string) []byte {
	t.Helper()
	body := []byte(payload)
	sum := sha256.Sum256(body)
	hdr, err := json.Marshal(map[string]any{
		"format":      2,
		"kind":        "bundle",
		"schema":      1,
		"payload_len": len(body),
		"sha256":      hex.EncodeToString(sum[:]),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString("RHEODUR1")
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(hdr)))
	buf.Write(lenBuf[:])
	buf.Write(hdr)
	buf.Write(body)
	return buf.Bytes()
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// fastRobust wraps inner with test-speed timeouts and no retry delay.
func fastRobust(inner BundleStore, attempts, threshold int) *Robust {
	return NewRobust(inner, RobustOptions{
		OpTimeout:        100 * time.Millisecond,
		Retry:            resilience.Backoff{Attempts: attempts, Base: time.Millisecond, Max: 2 * time.Millisecond, Seed: 7},
		BreakerThreshold: threshold,
		BreakerCooldown:  50 * time.Millisecond,
	})
}

// TestFSStoreRoundtrip: Put/Get/Stat/List against a real directory,
// including the not-found and nested-key cases.
func TestFSStoreRoundtrip(t *testing.T) {
	ctx := ctxT(t)
	s := NewFSStore(t.TempDir())

	if _, err := s.Get(ctx, "bundles/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing: %v, want ErrNotFound", err)
	}
	if _, err := s.Stat(ctx, "bundles/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat missing: %v, want ErrNotFound", err)
	}

	data := []byte("hello bundle")
	if err := s.Put(ctx, "bundles/abc.bundle", data); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "registry/manifest.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, "bundles/abc.bundle")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get = %q, %v", got, err)
	}
	info, err := s.Stat(ctx, "bundles/abc.bundle")
	if err != nil || info.Size != int64(len(data)) {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	keys, err := s.List(ctx, "bundles/")
	if err != nil || len(keys) != 1 || keys[0] != "bundles/abc.bundle" {
		t.Fatalf("list = %v, %v", keys, err)
	}
	all, err := s.List(ctx, "")
	if err != nil || len(all) != 2 {
		t.Fatalf("list all = %v, %v", all, err)
	}

	// Overwrite is atomic replacement, not append.
	if err := s.Put(ctx, "bundles/abc.bundle", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(ctx, "bundles/abc.bundle"); string(got) != "v2" {
		t.Fatalf("after overwrite: %q", got)
	}
}

// TestFSStoreRejectsEscapingKeys: keys must not address files outside
// the root.
func TestFSStoreRejectsEscapingKeys(t *testing.T) {
	ctx := ctxT(t)
	s := NewFSStore(t.TempDir())
	for _, key := range []string{"", "/etc/passwd", "../secret", "a/../../b", "a//b", "./a"} {
		if err := s.Put(ctx, key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an escaping key", key)
		}
		if _, err := s.Get(ctx, key); err == nil {
			t.Errorf("Get(%q) accepted an escaping key", key)
		}
	}
}

// TestFSStoreListSkipsTempFiles: a crashed writer's temp file is not
// an object.
func TestFSStoreListSkipsTempFiles(t *testing.T) {
	ctx := ctxT(t)
	dir := t.TempDir()
	s := NewFSStore(dir)
	if err := s.Put(ctx, "bundles/good.bundle", []byte("x")); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "bundles", "bad.bundle.tmp-123")
	if err := os.WriteFile(torn, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := s.List(ctx, "bundles/")
	if err != nil || len(keys) != 1 || keys[0] != "bundles/good.bundle" {
		t.Fatalf("list = %v, %v; temp files must be invisible", keys, err)
	}
}

// TestFSStoreRootOutage: a root directory that disappears (volume
// unmounted, store deleted) is an outage, not an empty store — every
// op must come back ErrStoreUnavailable so followers degrade instead
// of concluding the registry is empty.
func TestFSStoreRootOutage(t *testing.T) {
	ctx := ctxT(t)
	root := filepath.Join(t.TempDir(), "store")
	s, err := Open("fs:"+root, RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "bundles/a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Root present: a missing key is an answer.
	if _, err := s.Get(ctx, "bundles/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key with live root: %v, want ErrNotFound", err)
	}

	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "bundles/a"); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("get with root gone: %v, want ErrStoreUnavailable", err)
	}
	if _, err := s.Stat(ctx, "bundles/a"); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("stat with root gone: %v, want ErrStoreUnavailable", err)
	}
	if _, err := s.List(ctx, ""); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("list with root gone: %v, want ErrStoreUnavailable", err)
	}
}

// countedFaults counts the calls that reach a KVStore's fault hook,
// one per backend call, and passes each on to inner.
type countedFaults struct {
	inner resilience.Injector
	mu    sync.Mutex
	calls map[string]int
}

func countFaults(inner resilience.Injector) *countedFaults {
	return &countedFaults{inner: inner, calls: map[string]int{}}
}

func (c *countedFaults) Fault(op string) resilience.Fault {
	c.mu.Lock()
	c.calls[op]++
	c.mu.Unlock()
	if c.inner == nil {
		return resilience.Fault{}
	}
	return c.inner.Fault(op)
}

// Calls reports how many calls op ("kv.get", …) made.
func (c *countedFaults) Calls(op string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[op]
}

// TestRobustRetriesTransientFaults: two scripted transport errors are
// absorbed by the retry schedule; the caller sees success.
func TestRobustRetriesTransientFaults(t *testing.T) {
	ctx := ctxT(t)
	kv := NewKVStore()
	transient := errors.New("connection reset")
	script := resilience.NewScript()
	script.Queue("kv.get", 2, resilience.Fault{Err: transient})
	calls := countFaults(script)
	kv.Faults = calls
	r := fastRobust(kv, 3, 5)

	if err := r.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(ctx, "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("get after transient faults = %q, %v", got, err)
	}
	if n := calls.Calls("kv.get"); n != 3 {
		t.Fatalf("backend saw %d gets, want 3 (2 failures + 1 success)", n)
	}
	if err := r.breaker.Allow(); err != nil {
		t.Fatalf("breaker after recovered retries: %v, want closed", err)
	}
}

// TestRobustNotFoundIsNotRetried: a missing object is an answer, not
// an outage — one backend call, breaker untouched.
func TestRobustNotFoundIsNotRetried(t *testing.T) {
	ctx := ctxT(t)
	kv := NewKVStore()
	calls := countFaults(nil)
	kv.Faults = calls
	r := fastRobust(kv, 3, 2)
	for i := 0; i < 5; i++ {
		if _, err := r.Get(ctx, "missing"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("get missing: %v, want ErrNotFound", err)
		}
	}
	if n := calls.Calls("kv.get"); n != 5 {
		t.Fatalf("backend saw %d gets, want 5 (no retries on not-found)", n)
	}
	if err := r.breaker.Allow(); err != nil {
		t.Fatal("not-found answers must not open the breaker")
	}
}

// TestRobustBreakerOpensAndRecovers: a dead backend opens the circuit
// (further calls fail fast without touching it); once the backend
// recovers and the cooldown passes, a probe closes it again.
func TestRobustBreakerOpensAndRecovers(t *testing.T) {
	ctx := ctxT(t)
	kv := NewKVStore()
	down := errors.New("backend down")
	script := resilience.NewScript()
	script.Queue("kv.get", -1, resilience.Fault{Err: down})
	calls := countFaults(script)
	kv.Faults = calls
	r := fastRobust(kv, 2, 2) // 2 attempts per op, breaker opens after 2 failed ops

	if err := kv.Put(ctx, "k", []byte("v")); err != nil { // bypass envelope to seed data
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Get(ctx, "k"); !errors.Is(err, ErrStoreUnavailable) {
			t.Fatalf("get %d on dead backend: %v, want ErrStoreUnavailable", i, err)
		}
	}
	if err := r.breaker.Allow(); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("breaker after 2 failed ops: %v, want open", err)
	}
	before := calls.Calls("kv.get")
	if _, err := r.Get(ctx, "k"); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("get on open circuit: %v", err)
	}
	if after := calls.Calls("kv.get"); after != before {
		t.Fatalf("open circuit still reached the backend (%d → %d calls)", before, after)
	}

	// Backend recovers; after the cooldown one probe closes the circuit.
	kv.Faults = nil
	time.Sleep(60 * time.Millisecond)
	got, err := r.Get(ctx, "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("get after recovery = %q, %v", got, err)
	}
	if err := r.breaker.Allow(); err != nil {
		t.Fatalf("breaker after successful probe: %v, want closed", err)
	}
}

// TestRobustSlowBackendTimesOut: a hung backend is bounded by the
// per-op timeout and surfaces as ErrStoreUnavailable.
func TestRobustSlowBackendTimesOut(t *testing.T) {
	ctx := ctxT(t)
	kv := NewKVStore()
	script := resilience.NewScript()
	script.Queue("kv.get", -1, resilience.Fault{Delay: 10 * time.Second})
	kv.Faults = script
	r := NewRobust(kv, RobustOptions{
		OpTimeout:        20 * time.Millisecond,
		Retry:            resilience.Backoff{Attempts: 1},
		BreakerThreshold: 100,
	})
	start := time.Now()
	_, err := r.Get(ctx, "k")
	if !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("slow get: %v, want ErrStoreUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("slow get took %v; the per-op timeout did not bound it", elapsed)
	}
}

// TestRobustCallerCancellation: the caller's own context ending is not
// a backend failure — no breaker damage, context error surfaced.
func TestRobustCallerCancellation(t *testing.T) {
	kv := NewKVStore()
	script := resilience.NewScript()
	script.Queue("kv.get", -1, resilience.Fault{Delay: 10 * time.Second})
	kv.Faults = script
	r := NewRobust(kv, RobustOptions{
		OpTimeout:        5 * time.Second,
		Retry:            resilience.Backoff{Attempts: 1},
		BreakerThreshold: 1,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := r.Get(ctx, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled get: %v, want caller's deadline error", err)
	}
	if err := r.breaker.Allow(); err != nil {
		t.Fatal("caller cancellation must not open the breaker")
	}
}

// TestOpenSpecs: the -store spec syntax maps to the right backends.
func TestOpenSpecs(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		spec string
		name string
	}{
		{"fs:" + dir, "fs"},
		{dir, "fs"},
		{"mem:", "kv"},
	} {
		st, err := Open(tc.spec, RobustOptions{})
		if err != nil {
			t.Fatalf("Open(%q): %v", tc.spec, err)
		}
		if st.Name() != tc.name {
			t.Errorf("Open(%q).Name() = %q, want %q", tc.spec, st.Name(), tc.name)
		}
	}
	for _, bad := range []string{"", "fs:", "redis://localhost"} {
		if _, err := Open(bad, RobustOptions{}); err == nil {
			t.Errorf("Open(%q) accepted a bad spec", bad)
		}
	}
}
