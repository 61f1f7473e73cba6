package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"sync"

	"repro/internal/annotate"
	"repro/internal/obs"
	"repro/internal/recipe"
)

// cacheKey identifies one cached annotation: the model generation it
// was computed under plus the content hash of the canonicalized
// request. Including the generation means a SwapOutput (or registry
// rollout) invalidates the whole cache implicitly — requests after a
// swap compute a new-generation key that can never match an old
// entry, and the stale generation ages out of the LRU on its own.
type cacheKey struct {
	gen  int64
	hash [sha256.Size]byte
}

// hashRecipe content-addresses a resolved recipe via the shared
// canonical hash (recipe.CanonicalHash) — the same key the durable
// ingest WAL dedups on, so "already annotatable" and "already
// ingested" agree about recipe identity. The caller must have run
// Resolve first.
func hashRecipe(r *recipe.Recipe) [sha256.Size]byte {
	return recipe.CanonicalHash(r)
}

// flight is one in-progress fold-in that concurrent identical
// requests wait on. The leader fills exactly one of body or err, then
// closes done; waiters select on done against their own context, so a
// slow leader never extends a waiter past its deadline and an expired
// waiter never poisons the leader.
type flight struct {
	done chan struct{}
	body []byte
	card *annotate.WireCard
	err  error
}

// cacheEntry is one cached annotation: the encoded single-request
// response body (byte-identical to what a fresh fold-in would have
// written) plus the typed card for batch items. raws lists the raw
// request-body hashes memoized as spellings of this entry, so
// evicting it also drops its raw-index aliases.
type cacheEntry struct {
	key  cacheKey
	body []byte
	card *annotate.WireCard
	raws []cacheKey
}

// maxRawAliases bounds how many distinct raw spellings one entry will
// memoize — enough for the handful of serializations real clients
// produce, small enough that the raw index stays O(capacity).
const maxRawAliases = 8

// annotCache is the request-level annotation cache: a bounded LRU of
// encoded responses keyed by (model generation, recipe hash), with
// single-flight collapsing of concurrent identical misses so exactly
// one Gibbs fold-in feeds every waiter. All methods are safe for
// concurrent use; lookup and flight bookkeeping share one mutex so a
// finished flight and its cache insert are indivisible — no request
// can slip between them and fold in a second time.
type annotCache struct {
	capacity int

	mu       sync.Mutex
	ll       *list.List
	entries  map[cacheKey]*list.Element
	inflight map[cacheKey]*flight
	// raw indexes exact request bodies: (generation, sha256 of the raw
	// bytes) → canonical key. A byte-identical repeat — the hot-key
	// case — is answered without a JSON decode or a Resolve; any other
	// spelling of the recipe still lands on the canonical hash.
	raw map[cacheKey]cacheKey

	hits      *obs.Counter
	misses    *obs.Counter
	waiters   *obs.Counter
	evictions *obs.Counter
}

func newAnnotCache(capacity int, reg *obs.Registry) *annotCache {
	c := &annotCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[cacheKey]*list.Element),
		inflight: make(map[cacheKey]*flight),
		raw:      make(map[cacheKey]cacheKey),
		hits: reg.Counter("serve_cache_hits_total",
			"Annotations served from the request cache without a fold-in.", nil),
		misses: reg.Counter("serve_cache_misses_total",
			"Annotation requests that missed the cache.", nil),
		waiters: reg.Counter("serve_cache_inflight_waiters_total",
			"Requests collapsed onto an identical in-flight fold-in.", nil),
		evictions: reg.Counter("serve_cache_evictions_total",
			"Cache entries evicted by the LRU bound.", nil),
	}
	reg.GaugeFunc("serve_cache_size", "Annotation responses currently cached.", nil,
		func() float64 { return float64(c.Len()) })
	return c
}

// Len is the number of cached entries.
func (c *annotCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Leaders is the number of single-flight fold-ins currently running.
func (c *annotCache) Leaders() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// lookup resolves key in one critical section: a cached body (hit), an
// existing flight to wait on, or a fresh flight the caller now leads
// and must complete with finish. The single critical section is what
// makes the exactly-one-fold-in guarantee hold — there is no window
// between a miss and flight creation for a second leader to slip
// through.
func (c *annotCache) lookup(key cacheKey) (body []byte, f *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.hits.Inc()
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).body, nil, false
	}
	c.misses.Inc()
	if f, ok := c.inflight[key]; ok {
		c.waiters.Inc()
		return nil, f, false
	}
	f = &flight{done: make(chan struct{})}
	c.inflight[key] = f
	return nil, f, true
}

// rawLookup resolves an exact request-body hash through the raw
// index. A hit skips the whole decode-resolve-hash pipeline; a miss
// says nothing about the canonical key — the caller decodes and tries
// lookup. A memo whose canonical entry was evicted is dropped here.
func (c *annotCache) rawLookup(rk cacheKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key, ok := c.raw[rk]
	if !ok {
		return nil, false
	}
	el, ok := c.entries[key]
	if !ok {
		delete(c.raw, rk)
		return nil, false
	}
	c.hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// addRaw memoizes rk as one spelling of key's request, so the next
// byte-identical body short-circuits through rawLookup. A no-op when
// the entry is gone or already carries its alias quota.
func (c *annotCache) addRaw(key, rk cacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	if len(ent.raws) >= maxRawAliases {
		return
	}
	if _, dup := c.raw[rk]; dup {
		return
	}
	c.raw[rk] = key
	ent.raws = append(ent.raws, rk)
}

// get is the flight-free lookup the batch pre-pass uses: a hit
// returns the typed card, a miss returns nothing and the caller folds
// in itself (batch items do not join single-flights; their gate slots
// are already claimed).
func (c *annotCache) get(key cacheKey) (*annotate.WireCard, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.hits.Inc()
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).card, true
	}
	c.misses.Inc()
	return nil, false
}

// put inserts an annotation computed outside a flight (a batch item),
// encoding the card into the body a single request would have
// received.
func (c *annotCache) put(key cacheKey, card *annotate.WireCard) {
	body, err := encodeCard(card)
	if err != nil {
		return // unencodable card: nothing sane to cache
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, body, card)
}

// finish completes a flight: on success the result enters the cache
// and every waiter receives the body; on failure the waiters receive
// the leader's typed error and nothing is cached (the next identical
// request leads a fresh attempt). The flight is removed and the cache
// filled under one lock so no request can miss both.
func (c *annotCache) finish(key cacheKey, f *flight, card *annotate.WireCard, err error) ([]byte, error) {
	var body []byte
	if err == nil {
		body, err = encodeCard(card)
	}
	c.mu.Lock()
	if err == nil {
		c.insertLocked(key, body, card)
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	f.body, f.card, f.err = body, card, err
	close(f.done)
	return body, err
}

// insertLocked adds or refreshes an entry and enforces the LRU bound.
func (c *annotCache) insertLocked(key cacheKey, body []byte, card *annotate.WireCard) {
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		ent.body, ent.card = body, card
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, body: body, card: card})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		old := oldest.Value.(*cacheEntry)
		delete(c.entries, old.key)
		for _, rk := range old.raws {
			delete(c.raw, rk)
		}
		c.evictions.Inc()
	}
}

// encodeCard renders the card exactly as writeJSON would have: same
// encoder settings, same trailing newline — a cache hit is
// byte-identical to the fresh response.
func encodeCard(card *annotate.WireCard) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(card); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
