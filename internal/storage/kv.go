package storage

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/resilience"
)

// KVStore is the in-process key-value backend: a mutex-guarded map
// with the failure surface of a real remote store bolted on. Faults
// injects scripted latency, errors and panics per operation (ops
// "kv.put", "kv.get", "kv.stat", "kv.list"), and Mangle lets a test
// corrupt bytes on the way out — torn reads, bit rot, a proxy
// truncating a response. Production code would use it only as an
// ephemeral demo backend; its real job is making every degraded-mode
// path in the registry and the serving fleet exercisable in-process.
type KVStore struct {
	// Faults injects delay/error faults before each operation touches
	// the map. Nil injects nothing.
	Faults resilience.Injector
	// Mangle, when set, transforms the stored bytes returned by Get —
	// the hook for simulating payload corruption in transit. It must
	// not mutate its input.
	Mangle func(key string, data []byte) []byte

	mu      sync.RWMutex
	objects map[string][]byte
}

// NewKVStore builds an empty in-process store.
func NewKVStore() *KVStore {
	return &KVStore{objects: map[string][]byte{}}
}

// Name identifies the backend in metrics.
func (s *KVStore) Name() string { return "kv" }

func (s *KVStore) enter(ctx context.Context, op string) error {
	return resilience.Inject(ctx, s.Faults, "kv."+op)
}

// Put stores a copy of data under key.
func (s *KVStore) Put(ctx context.Context, key string, data []byte) error {
	if err := s.enter(ctx, "put"); err != nil {
		return fmt.Errorf("storage: kv put %q: %w", key, err)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.objects[key] = cp
	s.mu.Unlock()
	return nil
}

// Get returns a copy of the object under key.
func (s *KVStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := s.enter(ctx, "get"); err != nil {
		return nil, fmt.Errorf("storage: kv get %q: %w", key, err)
	}
	s.mu.RLock()
	data, ok := s.objects[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: kv get %q: %w", key, ErrNotFound)
	}
	if s.Mangle != nil {
		data = s.Mangle(key, data)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Stat probes the object under key.
func (s *KVStore) Stat(ctx context.Context, key string) (ObjectInfo, error) {
	if err := s.enter(ctx, "stat"); err != nil {
		return ObjectInfo{}, fmt.Errorf("storage: kv stat %q: %w", key, err)
	}
	s.mu.RLock()
	data, ok := s.objects[key]
	s.mu.RUnlock()
	if !ok {
		return ObjectInfo{}, fmt.Errorf("storage: kv stat %q: %w", key, ErrNotFound)
	}
	return ObjectInfo{Key: key, Size: int64(len(data))}, nil
}

// List returns the keys under prefix, sorted for determinism.
func (s *KVStore) List(ctx context.Context, prefix string) ([]string, error) {
	if err := s.enter(ctx, "list"); err != nil {
		return nil, fmt.Errorf("storage: kv list %q: %w", prefix, err)
	}
	s.mu.RLock()
	var keys []string
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}
