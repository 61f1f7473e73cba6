package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/resilience"
	"repro/internal/storage"
)

// switchableFault is an injector a test can flip on and off — the
// "kill the backend / plug it back in" lever.
type switchableFault struct {
	on  atomic.Bool
	err error
}

func (s *switchableFault) Fault(op string) resilience.Fault {
	if s.on.Load() {
		return resilience.Fault{Err: s.err}
	}
	return resilience.Fault{}
}

// followerRig is the standard fleet-test setup: an in-process KV
// backend with a kill switch, a robustness-wrapped registry over it,
// and a pending server following that registry.
type followerRig struct {
	kv     *storage.KVStore
	outage *switchableFault
	reg    *storage.Registry
	srv    *Server
	fol    *Follower
}

func newFollowerRig(t *testing.T, opts Options, fopts FollowOptions) *followerRig {
	t.Helper()
	kv := storage.NewKVStore()
	outage := &switchableFault{err: errors.New("backend unplugged")}
	kv.Faults = outage
	robust := storage.NewRobust(kv, storage.RobustOptions{
		OpTimeout:        time.Second,
		Retry:            resilience.Backoff{Attempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond, Seed: 11},
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Millisecond,
	})
	reg := storage.NewRegistry(robust)

	opts.Logf = t.Logf
	srv := NewPending(opts)
	fopts.Registry = reg
	fol, err := srv.NewFollower(fopts)
	if err != nil {
		t.Fatal(err)
	}
	return &followerRig{kv: kv, outage: outage, reg: reg, srv: srv, fol: fol}
}

// publishFixture publishes a bundle derived from the shared fixture,
// perturbing the exclusion map with tag so each tag yields a distinct
// content digest (and therefore a distinct generation).
func publishFixture(t *testing.T, reg *storage.Registry, tag string) storage.Generation {
	t.Helper()
	src := fixtureOutput(t)
	o := *src
	ex := map[string][]string{"__rollout_" + tag: {tag}}
	for k, v := range src.ExcludedTerms {
		ex[k] = v
	}
	o.ExcludedTerms = ex
	b, _, err := o.EncodeBundle()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := reg.Publish(context.Background(), b, tag)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func statuszStats(t *testing.T, h http.Handler) Stats {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/statusz: %d", rec.Code)
	}
	var st Stats
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFollowerRolloutAndDegradedServing is the fleet acceptance test:
// a replica under live load follows the registry; the backend dies
// mid-rollout; the replica serves zero non-200s on its last-good
// generation, reports registry_degraded on /statusz, and converges to
// the promoted generation within one poll interval of the backend
// coming back.
func TestFollowerRolloutAndDegradedServing(t *testing.T) {
	ctx := ctxServe(t)
	opts := quietOptions()
	opts.Pool = 4
	opts.FoldInIters = 5
	rig := newFollowerRig(t, opts, FollowOptions{Interval: 25 * time.Millisecond})
	h := rig.srv.Handler()

	genA := publishFixture(t, rig.reg, "A")
	if err := rig.reg.Promote(ctx, genA.ID); err != nil {
		t.Fatal(err)
	}
	if err := rig.fol.Poll(ctx); err != nil {
		t.Fatalf("initial poll: %v", err)
	}
	if !rig.srv.Ready() {
		t.Fatal("server not ready after first successful poll")
	}

	// Live load at pool concurrency for the rest of the test.
	var (
		stop     atomic.Bool
		served   atomic.Int64
		statuses sync.Map
	)
	var wg sync.WaitGroup
	for i := 0; i < opts.Pool; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rec := postAnnotate(h, jellyJSON)
				v, _ := statuses.LoadOrStore(rec.Code, new(atomic.Int64))
				v.(*atomic.Int64).Add(1)
				if rec.Code == http.StatusOK {
					served.Add(1)
				}
			}
		}()
	}

	// Mid-rollout outage: generation B is promoted, then the backend
	// dies before this replica can fetch it.
	genB := publishFixture(t, rig.reg, "B")
	if err := rig.reg.Promote(ctx, genB.ID); err != nil {
		t.Fatal(err)
	}
	rig.outage.on.Store(true)
	for i := 0; i < 4; i++ {
		if err := rig.fol.Poll(ctx); err == nil {
			t.Fatal("poll succeeded against a dead backend")
		}
	}
	st := statuszStats(t, h)
	if !st.RegistryDegraded || st.Registry == nil || !st.Registry.Degraded {
		t.Fatalf("statusz not degraded during outage: %+v", st)
	}
	if st.Registry.LastError == "" {
		t.Error("degraded status carries no last_error")
	}
	if st.Registry.Generation != genA.ID || st.Registry.Digest != genA.Digest {
		t.Fatalf("outage changed the serving generation: %+v", st.Registry)
	}
	// /readyz stays green: the model is fine, only the control plane is
	// down.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz %d during registry outage, want 200", rec.Code)
	}

	// Recovery: the backend returns; the Run loop must converge to the
	// promoted generation within one poll interval (plus scheduling
	// slack) and clear the degraded flag.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	go rig.fol.Run(runCtx)
	rig.outage.on.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := rig.fol.Status()
		if s.Generation == genB.ID && !s.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica did not converge to generation %d: %+v", genB.ID, s)
		}
		time.Sleep(5 * time.Millisecond)
	}

	stop.Store(true)
	wg.Wait()
	statuses.Range(func(code, n any) bool {
		if c := code.(int); c != http.StatusOK {
			t.Errorf("status %d seen %d times across the outage; want only 200s",
				c, n.(*atomic.Int64).Load())
		}
		return true
	})
	if served.Load() == 0 {
		t.Fatal("hammer produced no successful annotations; test proved nothing")
	}
	final := statuszStats(t, h)
	if final.RegistryDegraded {
		t.Error("still degraded after recovery")
	}
	if final.Registry.Generation != genB.ID {
		t.Errorf("serving generation %d after recovery, want %d", final.Registry.Generation, genB.ID)
	}
}

// TestFollowerRefusesMangledBundle: a promoted generation whose blob
// is corrupt is refused — fetch failure counted, degraded reported,
// last-good model kept — and picked up cleanly once the bytes heal.
func TestFollowerRefusesMangledBundle(t *testing.T) {
	ctx := ctxServe(t)
	rig := newFollowerRig(t, quietOptions(), FollowOptions{Interval: time.Hour})

	genA := publishFixture(t, rig.reg, "A")
	if err := rig.reg.Promote(ctx, genA.ID); err != nil {
		t.Fatal(err)
	}
	if err := rig.fol.Poll(ctx); err != nil {
		t.Fatal(err)
	}

	genB := publishFixture(t, rig.reg, "B")
	if err := rig.reg.Promote(ctx, genB.ID); err != nil {
		t.Fatal(err)
	}
	rig.kv.Mangle = func(key string, data []byte) []byte {
		if key != storage.BundleKey(genB.Digest) {
			return data
		}
		cp := append([]byte(nil), data...)
		cp[len(cp)-1] ^= 0x01
		return cp
	}
	err := rig.fol.Poll(ctx)
	if !errors.Is(err, storage.ErrDigestMismatch) {
		t.Fatalf("poll over mangled blob: %v, want ErrDigestMismatch", err)
	}
	s := rig.fol.Status()
	if !s.Degraded || s.Generation != genA.ID {
		t.Fatalf("mangled fetch did not degrade safely: %+v", s)
	}
	if got := rig.fol.mFetchFails.Value(); got != 1 {
		t.Errorf("swap_fetch_failures_total = %d, want 1", got)
	}
	if rec := postAnnotate(rig.srv.Handler(), jellyJSON); rec.Code != http.StatusOK {
		t.Fatalf("annotate on last-good model: %d", rec.Code)
	}

	rig.kv.Mangle = nil
	if err := rig.fol.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	if s := rig.fol.Status(); s.Generation != genB.ID || s.Degraded {
		t.Fatalf("did not converge after blob healed: %+v", s)
	}
}

// TestFollowerRefusesOldSchemaBundle: a newly promoted generation that
// an older build wrote as a schema-2 bundle is refused — degraded
// reported, last-good model kept — and /statusz names the schema and
// how to rebuild the bundle.
func TestFollowerRefusesOldSchemaBundle(t *testing.T) {
	ctx := ctxServe(t)
	rig := newFollowerRig(t, quietOptions(), FollowOptions{Interval: time.Hour})

	genA := publishFixture(t, rig.reg, "A")
	if err := rig.reg.Promote(ctx, genA.ID); err != nil {
		t.Fatal(err)
	}
	if err := rig.fol.Poll(ctx); err != nil {
		t.Fatal(err)
	}

	// The header names the schema outside the digested payload.
	b, _, err := fixtureOutput(t).EncodeBundle()
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(b, []byte(`"schema":3`), []byte(`"schema":2`), 1)
	if bytes.Equal(old, b) {
		t.Fatal("bundle header carries no schema 3")
	}
	genB, err := rig.reg.Publish(ctx, old, "schema 2")
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.reg.Promote(ctx, genB.ID); err != nil {
		t.Fatal(err)
	}
	if err := rig.fol.Poll(ctx); !errors.Is(err, pipeline.ErrVersion) {
		t.Fatalf("poll over a schema-2 bundle: %v, want ErrVersion", err)
	}
	if s := rig.fol.Status(); !s.Degraded || s.Generation != genA.ID {
		t.Fatalf("schema-2 generation did not degrade safely: %+v", s)
	}
	st := statuszStats(t, rig.srv.Handler())
	if !st.RegistryDegraded || st.Registry == nil {
		t.Fatalf("statusz not degraded: %+v", st)
	}
	for _, want := range []string{"bundle schema 2", "texturetopics -bundle-out", "-promote"} {
		if !strings.Contains(st.Registry.LastError, want) {
			t.Errorf("statusz last_error %q does not say %q", st.Registry.LastError, want)
		}
	}
	if rec := postAnnotate(rig.srv.Handler(), jellyJSON); rec.Code != http.StatusOK {
		t.Fatalf("annotate on last-good model: %d", rec.Code)
	}
}

// TestFollowerPinnedGeneration: a pinned replica serves its pin and
// ignores promotions.
func TestFollowerPinnedGeneration(t *testing.T) {
	ctx := ctxServe(t)
	rig0 := newFollowerRig(t, quietOptions(), FollowOptions{Interval: time.Hour})
	genA := publishFixture(t, rig0.reg, "A")
	genB := publishFixture(t, rig0.reg, "B")
	if err := rig0.reg.Promote(ctx, genB.ID); err != nil {
		t.Fatal(err)
	}

	// A second server pinned to A against the same registry.
	opts := quietOptions()
	opts.Logf = t.Logf
	srv := NewPending(opts)
	fol, err := srv.NewFollower(FollowOptions{Registry: rig0.reg, Interval: time.Hour, Pin: genA.ID})
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	s := fol.Status()
	if s.Generation != genA.ID {
		t.Fatalf("pinned replica serves generation %d, want %d", s.Generation, genA.ID)
	}
	if err := fol.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	if s := fol.Status(); s.Generation != genA.ID || s.PinnedGeneration != genA.ID {
		t.Fatalf("pin did not hold: %+v", s)
	}
}

// TestFollowerEmptyRegistryIsNotDegraded: a reachable registry with no
// promoted generation means "wait", not "degraded" — and the server
// stays unready because it has no model at all.
func TestFollowerEmptyRegistryIsNotDegraded(t *testing.T) {
	ctx := ctxServe(t)
	rig := newFollowerRig(t, quietOptions(), FollowOptions{Interval: time.Hour})
	if err := rig.fol.Poll(ctx); err != nil {
		t.Fatalf("poll on empty registry: %v", err)
	}
	s := rig.fol.Status()
	if s.Degraded || s.Generation != 0 {
		t.Fatalf("empty registry state: %+v", s)
	}
	if rig.srv.Ready() {
		t.Fatal("server ready with no model")
	}
}

// TestFollowerSingleton: a second follower on the same server is
// rejected.
func TestFollowerSingleton(t *testing.T) {
	rig := newFollowerRig(t, quietOptions(), FollowOptions{Interval: time.Hour})
	if _, err := rig.srv.NewFollower(FollowOptions{Registry: rig.reg}); err == nil {
		t.Fatal("second follower accepted")
	}
}

// TestFollowerMetricsExposed: the registry follower series show up on
// the shared /metrics page.
func TestFollowerMetricsExposed(t *testing.T) {
	rig := newFollowerRig(t, quietOptions(), FollowOptions{Interval: time.Hour})
	rec := httptest.NewRecorder()
	rig.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{"registry_generation", "registry_degraded", "swap_fetch_failures_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func ctxServe(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestFollowerTopicsFromModelPart: a follower loads only a bundle's
// model part, without docs or θ, and /topics still reports the fitted
// model's recipes per topic, from the counts the model part carries.
func TestFollowerTopicsFromModelPart(t *testing.T) {
	ctx := ctxServe(t)
	rig := newFollowerRig(t, quietOptions(), FollowOptions{Interval: time.Hour})
	gen := publishFixture(t, rig.reg, "topics")
	if err := rig.reg.Promote(ctx, gen.ID); err != nil {
		t.Fatal(err)
	}
	if err := rig.fol.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rig.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/topics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/topics: %d", rec.Code)
	}
	var topics []TopicInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &topics); err != nil {
		t.Fatal(err)
	}
	want := fixtureOutput(t).Model.DocsPerTopic()
	if len(topics) != len(want) {
		t.Fatalf("%d topics, want %d", len(topics), len(want))
	}
	for k, info := range topics {
		if info.Recipes != want[k] {
			t.Fatalf("topic %d: %d recipes, fitted model has %d", k, info.Recipes, want[k])
		}
	}
}
