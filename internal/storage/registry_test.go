package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/resilience"
)

func testRegistry(t *testing.T) (*Registry, *KVStore) {
	t.Helper()
	kv := NewKVStore()
	reg := NewRegistry(fastRobust(kv, 2, 100))
	reg.Clock = func() time.Time { return time.Unix(1700000000, 0) }
	return reg, kv
}

// TestRegistryLifecycle walks the full operator flow: publish two
// generations, promote, promote again, roll back.
func TestRegistryLifecycle(t *testing.T) {
	ctx := ctxT(t)
	reg, _ := testRegistry(t)

	if _, err := reg.Promoted(ctx); !errors.Is(err, ErrNoPromoted) {
		t.Fatalf("empty registry Promoted: %v, want ErrNoPromoted", err)
	}

	b1 := fakeBundle(t, "model generation one")
	b2 := fakeBundle(t, "model generation two")
	g1, err := reg.Publish(ctx, b1, "first fit")
	if err != nil {
		t.Fatal(err)
	}
	if g1.ID != 1 || g1.Note != "first fit" || g1.Size != int64(len(b1)) {
		t.Fatalf("g1 = %+v", g1)
	}
	g2, err := reg.Publish(ctx, b2, "refit")
	if err != nil {
		t.Fatal(err)
	}
	if g2.ID != 2 {
		t.Fatalf("g2.ID = %d, want 2", g2.ID)
	}

	// Publishing is not promoting.
	if _, err := reg.Promoted(ctx); !errors.Is(err, ErrNoPromoted) {
		t.Fatalf("Promoted before any promote: %v", err)
	}
	if err := reg.Promote(ctx, g1.ID); err != nil {
		t.Fatal(err)
	}
	if p, err := reg.Promoted(ctx); err != nil || p.ID != g1.ID {
		t.Fatalf("promoted = %+v, %v; want generation 1", p, err)
	}
	if err := reg.Promote(ctx, g2.ID); err != nil {
		t.Fatal(err)
	}
	if p, _ := reg.Promoted(ctx); p.ID != g2.ID {
		t.Fatalf("promoted = %d, want 2", p.ID)
	}

	// Rolling back is promoting the earlier generation's ID again.
	if err := reg.Promote(ctx, g1.ID); err != nil {
		t.Fatal(err)
	}
	if p, _ := reg.Promoted(ctx); p.ID != g1.ID {
		t.Fatalf("promoted after rollback = %d, want 1", p.ID)
	}
	if m, err := reg.Manifest(ctx); err != nil || m.Previous != g2.ID {
		t.Fatalf("manifest after rollback: %+v, %v; want previous = 2", m, err)
	}

	// Fetch verifies content against the generation digest.
	got, err := reg.Fetch(ctx, g1)
	if err != nil || string(got) != string(b1) {
		t.Fatalf("fetch g1: %d bytes, %v", len(got), err)
	}

	// Unknown generations are typed.
	if err := reg.Promote(ctx, 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("promote unknown: %v", err)
	}
}

// TestRegistryPublishIdempotent: same bytes → same digest → same
// generation; the lineage does not grow.
func TestRegistryPublishIdempotent(t *testing.T) {
	ctx := ctxT(t)
	reg, _ := testRegistry(t)
	b := fakeBundle(t, "identical content")
	g1, err := reg.Publish(ctx, b, "first")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := reg.Publish(ctx, b, "again")
	if err != nil {
		t.Fatal(err)
	}
	if g2.ID != g1.ID || g2.Digest != g1.Digest {
		t.Fatalf("republish created generation %d, want %d", g2.ID, g1.ID)
	}
	m, err := reg.Manifest(ctx)
	if err != nil || len(m.Generations) != 1 {
		t.Fatalf("lineage length %d, %v; want 1", len(m.Generations), err)
	}
}

// TestRegistryRejectsGarbagePublish: bytes that are not a bundle
// container never reach the store.
func TestRegistryRejectsGarbagePublish(t *testing.T) {
	ctx := ctxT(t)
	reg, kv := testRegistry(t)
	if _, err := reg.Publish(ctx, []byte("not a container"), ""); err == nil {
		t.Fatal("garbage publish accepted")
	}
	if keys, _ := kv.List(ctx, "bundles/"); len(keys) != 0 {
		t.Fatalf("garbage reached the store: %v", keys)
	}
}

// TestRegistryFetchDigestMismatch: a blob corrupted at rest (or in
// transit) is refused with ErrDigestMismatch, never returned.
func TestRegistryFetchDigestMismatch(t *testing.T) {
	ctx := ctxT(t)
	reg, kv := testRegistry(t)
	g, err := reg.Publish(ctx, fakeBundle(t, "soon to be mangled"), "")
	if err != nil {
		t.Fatal(err)
	}
	kv.Mangle = func(key string, data []byte) []byte {
		if key != BundleKey(g.Digest) {
			return data
		}
		cp := append([]byte(nil), data...)
		cp[len(cp)-1] ^= 0xFF // flip a payload bit
		return cp
	}
	if _, err := reg.Fetch(ctx, g); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("fetch of mangled blob: %v, want ErrDigestMismatch", err)
	}
}

// TestRegistryManifestCorruption: a damaged manifest is a typed
// failure, and an intact rewrite recovers the registry.
func TestRegistryManifestCorruption(t *testing.T) {
	ctx := ctxT(t)
	reg, kv := testRegistry(t)
	g, err := reg.Publish(ctx, fakeBundle(t, "v1"), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(ctx, g.ID); err != nil {
		t.Fatal(err)
	}

	kv.Mangle = func(key string, data []byte) []byte {
		if key != ManifestKey {
			return data
		}
		cp := append([]byte(nil), data...)
		cp[len(cp)/2] ^= 0x40
		return cp
	}
	if _, err := reg.Manifest(ctx); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("corrupt manifest load: %v, want ErrManifestCorrupt", err)
	}
	if _, err := reg.Promoted(ctx); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("Promoted over corrupt manifest: %v", err)
	}

	// The store heals (proxy fixed, file restored): reads work again.
	kv.Mangle = nil
	if p, err := reg.Promoted(ctx); err != nil || p.ID != g.ID {
		t.Fatalf("recovered Promoted = %+v, %v", p, err)
	}
}

// TestRegistryPromoteWhileFetching: replicas fetching under a stream
// of publishes and promotes never see a torn or mismatched bundle —
// content addressing makes blobs immutable, so every fetch verifies.
// Run under -race this also proves the registry read path is
// goroutine-safe.
func TestRegistryPromoteWhileFetching(t *testing.T) {
	ctx := ctxT(t)
	reg, _ := testRegistry(t)
	first, err := reg.Publish(ctx, fakeBundle(t, "gen 0"), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(ctx, first.ID); err != nil {
		t.Fatal(err)
	}

	const rollouts = 20
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ { // replica fetch loops
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				p, err := reg.Promoted(ctx)
				if err != nil {
					t.Errorf("Promoted mid-rollout: %v", err)
					return
				}
				if _, err := reg.Fetch(ctx, p); err != nil {
					t.Errorf("Fetch generation %d mid-rollout: %v", p.ID, err)
					return
				}
			}
		}()
	}
	for i := 1; i <= rollouts; i++ {
		g, err := reg.Publish(ctx, fakeBundle(t, fmt.Sprintf("gen %d", i)), "")
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Promote(ctx, g.ID); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	p, err := reg.Promoted(ctx)
	if err != nil || p.ID != int64(rollouts+1) {
		t.Fatalf("final promoted = %+v, %v; want generation %d", p, err, rollouts+1)
	}
}

// TestRegistryStoreOutage: with the backend dead, every registry read
// comes back ErrStoreUnavailable — the signal the serving layer turns
// into degraded mode.
func TestRegistryStoreOutage(t *testing.T) {
	ctx := ctxT(t)
	kv := NewKVStore()
	robust := fastRobust(kv, 1, 100)
	reg := NewRegistry(robust)
	g, err := reg.Publish(ctx, fakeBundle(t, "v1"), "")
	if err != nil {
		t.Fatal(err)
	}
	script := resilience.NewScript()
	script.Queue("kv.get", -1, resilience.Fault{Err: errors.New("backend unplugged")})
	kv.Faults = script

	if _, err := reg.Promoted(ctx); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("Promoted during outage: %v, want ErrStoreUnavailable", err)
	}
	if _, err := reg.Fetch(ctx, g); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("Fetch during outage: %v, want ErrStoreUnavailable", err)
	}
}

// FuzzRegistryManifest drives arbitrary bytes through the manifest
// decoder: it must never panic, and every rejection must wrap
// ErrManifestCorrupt or pipeline.ErrVersion so replicas can always
// classify a bad manifest as "degraded, keep serving".
func FuzzRegistryManifest(f *testing.F) {
	good, err := EncodeManifest(&Manifest{
		Schema:   1,
		Promoted: 2,
		Previous: 1,
		Generations: []Generation{
			{ID: 1, Digest: "aaa", Size: 10, CreatedUnix: 1700000000},
			{ID: 2, Digest: "bbb", Size: 11, CreatedUnix: 1700000100, Pinned: true},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":1,"sha256":"00","manifest":{}}`))
	f.Add([]byte(`{"schema":99,"sha256":"","manifest":null}`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err == nil {
			if m == nil {
				t.Fatal("nil manifest without error")
			}
			if m.Promoted != 0 {
				if _, ok := m.generation(m.Promoted); !ok {
					t.Fatal("decoder accepted a manifest promoting an unknown generation")
				}
			}
			return
		}
		if !errors.Is(err, ErrManifestCorrupt) && !errors.Is(err, pipeline.ErrVersion) {
			t.Fatalf("untyped manifest error: %v", err)
		}
	})
}

// TestRegistryReadsPinnedManifest: earlier builds could pin a
// generation. Their manifest, "pinned": true included, still loads,
// and a promote that rewrites it keeps the flag.
func TestRegistryReadsPinnedManifest(t *testing.T) {
	ctx := ctxT(t)
	reg, kv := testRegistry(t)
	const old = `{"schema":1,"sha256":"d85cdc1c153493cdf5dcffffe7839ce9cc8ebaf97a59b76f75d98944a4894c4d","manifest":{"schema":1,"promoted":1,"generations":[{"id":1,"digest":"6cf2012ae6618b75ba2aa036e24ad48aacc94ed4c33bd62072352ec200a2877a","size":158,"note":"nightly","created_unix":1700000000,"pinned":true}]}}`
	if err := kv.Put(ctx, ManifestKey, []byte(old)); err != nil {
		t.Fatal(err)
	}
	p, err := reg.Promoted(ctx)
	if err != nil || p.ID != 1 || !p.Pinned {
		t.Fatalf("promoted = %+v, %v; want pinned generation 1", p, err)
	}
	if err := kv.Put(ctx, BundleKey(p.Digest), fakeBundle(t, "generation one")); err != nil {
		t.Fatal(err)
	}
	g2, err := reg.Publish(ctx, fakeBundle(t, "generation two"), "refit")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(ctx, g2.ID); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if p, err := reg.Promoted(ctx); err != nil || p.ID != 1 || !p.Pinned {
		t.Fatalf("promoted after rewrites = %+v, %v; want pinned generation 1", p, err)
	}
}
