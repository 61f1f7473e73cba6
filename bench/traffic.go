package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"repro/internal/corpus"
	"repro/internal/recipe"
)

// Request kinds on the wire.
const (
	kindAnnotate = iota
	kindBatch
	kindIngest
)

var kindPath = [...]string{kindAnnotate: "/annotate", kindBatch: "/annotate/batch", kindIngest: "/ingest"}

const (
	// poolSize is how many distinct recipe contents are generated per
	// run. Keys beyond it reuse contents under a different id, which is
	// part of the canonical hash, so every key is a distinct cache entry.
	poolSize = 20000
	// zipfKeys is the annotate-zipf key space: about 12× the server's
	// 4,096-entry cache, so a steady share of draws miss.
	zipfKeys = 50000
	// variantShare is the share of annotate-zipf draws sent as a
	// re-serialised variant of the recipe.
	variantShare = 0.25
	// batchSize is the recipes per annotate-batch request.
	batchSize = 32
	// readLag is how many ingests back an ingest-mixed read looks: at
	// the offered 2,000 ops/s (1,000 ingests/s) that is the recipe
	// ingested 50 ms earlier.
	readLag = 50
)

// item is one pool recipe, its JSON fields pre-encoded so request
// bodies are assembled by copying bytes.
type item struct {
	title, desc []byte
	ings        [][2][]byte // name, amount
	steps       [][]byte
	truth       int
}

// makePool generates n gel recipes from the corpus generator with the
// given seed. Every recipe passes Resolve and HasGel, so the server
// annotates all of them.
func makePool(seed uint64, n int) ([]item, error) {
	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = 1.1 * float64(n) / float64(corpus.TotalRecipes())
	recs, err := corpus.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating probe recipes: %w", err)
	}
	pool := make([]item, 0, n)
	for _, r := range recs {
		if len(pool) == n {
			break
		}
		if r.Resolve() != nil || !r.HasGel() {
			continue
		}
		it := item{title: jsonString(r.Title), desc: jsonString(r.Description), truth: r.Truth}
		for _, ing := range r.Ingredients {
			it.ings = append(it.ings, [2][]byte{jsonString(ing.Name), jsonString(ing.Amount)})
		}
		for _, s := range r.Steps {
			it.steps = append(it.steps, jsonString(s))
		}
		pool = append(pool, it)
	}
	if len(pool) < n {
		return nil, fmt.Errorf("corpus gave %d annotatable recipes, want %d", len(pool), n)
	}
	return pool, nil
}

func jsonString(s string) []byte {
	b, _ := json.Marshal(s) // a Go string always marshals
	return b
}

// probeSeed derives the probe corpus seed from the workload seed. It is
// never 7, the seed of the corpus the served model is fitted on, so
// probe recipes are unseen by the model.
func probeSeed(seed uint64) uint64 {
	s := seed*2 + 101
	if s == corpus.DefaultConfig().Seed {
		s++
	}
	return s
}

// traffic turns an operation index into a request. The mapping is a
// pure function of the workload seed and the index, so a run's inputs
// repeat exactly for a seed however the operations are spread over
// connections and phases.
type traffic struct {
	workload string
	seed     uint64
	pool     []item
	zipf     []float64 // cumulative Zipf(s=1) weights over zipfKeys ranks
}

func newTraffic(workload string, seed uint64, pool []item) *traffic {
	t := &traffic{workload: workload, seed: seed, pool: pool}
	if workload == "annotate-zipf" {
		t.zipf = zipfCDF(zipfKeys, 1.0)
	}
	return t
}

// zipfCDF is the normalised cumulative weight of ranks 1..n under
// Zipf with exponent s. math/rand's Zipf requires s > 1.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// op describes operation i: its kind, the recipe keys it carries, and
// for a re-serialised variant the source of its layout.
type op struct {
	kind    int
	keys    []int64
	variant *rand.Rand // nil for a canonical body
}

func (t *traffic) op(i int64) op {
	switch t.workload {
	case "annotate-zipf":
		rng := rand.New(rand.NewPCG(t.seed, uint64(i)))
		key := int64(sort.SearchFloat64s(t.zipf, rng.Float64()))
		if key >= zipfKeys {
			key = zipfKeys - 1
		}
		o := op{kind: kindAnnotate, keys: []int64{key}}
		if rng.Float64() < variantShare {
			o.variant = rng
		}
		return o
	case "annotate-batch":
		keys := make([]int64, batchSize)
		for j := range keys {
			keys[j] = i*batchSize + int64(j)
		}
		return op{kind: kindBatch, keys: keys}
	case "ingest-mixed":
		k := i / 2
		if i%2 == 0 {
			return op{kind: kindIngest, keys: []int64{k}}
		}
		if k < readLag {
			// Nothing was ingested 50 ms before the first reads; they
			// annotate a recipe no op ever ingests.
			return op{kind: kindAnnotate, keys: []int64{-1 - k}}
		}
		return op{kind: kindAnnotate, keys: []int64{k - readLag}}
	default: // annotate-cold and the refit follower probe: every key new
		return op{kind: kindAnnotate, keys: []int64{i}}
	}
}

// readAfterWrite reports whether operation i is an ingest-mixed read
// of a recipe an earlier operation ingested.
func (t *traffic) readAfterWrite(i int64) bool {
	return t.workload == "ingest-mixed" && i%2 == 1 && i/2 >= readLag
}

// recipes is the count of recipes an operation of this workload
// carries.
func (t *traffic) recipes() int {
	if t.workload == "annotate-batch" {
		return batchSize
	}
	return 1
}

func (t *traffic) item(key int64) *item {
	k := key % int64(len(t.pool))
	if k < 0 {
		k += int64(len(t.pool))
	}
	return &t.pool[k]
}

// id is the recipe id sent for key; the server echoes it as recipe_id.
func appendID(b []byte, key int64) []byte {
	b = append(b, 'r')
	return strconv.AppendInt(b, key, 10)
}

// body writes operation o's request body into b (reset first).
func (t *traffic) body(o op, b *bytes.Buffer) {
	b.Reset()
	if o.kind == kindBatch {
		b.WriteString(`{"recipes":[`)
		for j, key := range o.keys {
			if j > 0 {
				b.WriteByte(',')
			}
			t.writeRecipe(b, key)
		}
		b.WriteString(`]}`)
		return
	}
	if o.variant != nil {
		t.writeVariant(b, o.keys[0], o.variant)
		return
	}
	t.writeRecipe(b, o.keys[0])
}

func (t *traffic) writeRecipe(b *bytes.Buffer, key int64) {
	it := t.item(key)
	var idb [24]byte
	b.WriteString(`{"id":"`)
	b.Write(appendID(idb[:0], key))
	b.WriteString(`","title":`)
	b.Write(it.title)
	b.WriteString(`,"description":`)
	b.Write(it.desc)
	b.WriteString(`,"ingredients":[`)
	for j, ing := range it.ings {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"name":`)
		b.Write(ing[0])
		b.WriteString(`,"amount":`)
		b.Write(ing[1])
		b.WriteByte('}')
	}
	b.WriteString(`],"steps":[`)
	for j, s := range it.steps {
		if j > 0 {
			b.WriteByte(',')
		}
		b.Write(s)
	}
	b.WriteString(`]}`)
}

// spaces are the inter-token whitespace a variant draws from.
var spaces = []string{"", " ", "\n", "\t", "  ", "\n  "}

// writeVariant re-serialises key's recipe: fields in a random order,
// ingredients shuffled with their own keys in random order, and random
// whitespace between tokens. The raw bytes differ from the canonical
// body while the canonical hash (sorted ingredients, resolved grams)
// stays the same.
func (t *traffic) writeVariant(b *bytes.Buffer, key int64, rng *rand.Rand) {
	it := t.item(key)
	ws := func() { b.WriteString(spaces[rng.IntN(len(spaces))]) }
	var idb [24]byte
	fields := [5]int{0, 1, 2, 3, 4}
	rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	order := rng.Perm(len(it.ings))
	b.WriteByte('{')
	for n, f := range fields {
		if n > 0 {
			b.WriteByte(',')
		}
		ws()
		switch f {
		case 0:
			b.WriteString(`"id":`)
			ws()
			b.WriteByte('"')
			b.Write(appendID(idb[:0], key))
			b.WriteByte('"')
		case 1:
			b.WriteString(`"title":`)
			ws()
			b.Write(it.title)
		case 2:
			b.WriteString(`"description":`)
			ws()
			b.Write(it.desc)
		case 3:
			b.WriteString(`"ingredients":[`)
			for j, o := range order {
				if j > 0 {
					b.WriteByte(',')
				}
				ws()
				ing := it.ings[o]
				if rng.IntN(2) == 0 {
					b.WriteString(`{"name":`)
					b.Write(ing[0])
					b.WriteString(`,"amount":`)
					b.Write(ing[1])
				} else {
					b.WriteString(`{"amount":`)
					b.Write(ing[1])
					b.WriteString(`,`)
					ws()
					b.WriteString(`"name":`)
					b.Write(ing[0])
				}
				b.WriteByte('}')
			}
			ws()
			b.WriteByte(']')
		case 4:
			b.WriteString(`"steps":[`)
			for j, s := range it.steps {
				if j > 0 {
					b.WriteByte(',')
				}
				b.Write(s)
			}
			b.WriteByte(']')
		}
		ws()
	}
	b.WriteByte('}')
}

// decodeRecipe parses a request body the way the server does: unknown
// fields disallowed.
func decodeRecipe(body []byte) (*recipe.Recipe, error) {
	var rec recipe.Recipe
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return nil, err
	}
	return &rec, nil
}
