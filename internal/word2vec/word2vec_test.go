package word2vec

import (
	"fmt"
	"testing"

	"repro/internal/stats"
)

func TestBuildVocab(t *testing.T) {
	sents := [][]string{
		{"a", "b", "a", "c"},
		{"a", "b", "d"},
	}
	v := BuildVocab(sents, 1)
	if v.Size() != 4 {
		t.Fatalf("size = %d", v.Size())
	}
	// Most frequent first.
	if v.Words[0] != "a" || v.Counts[0] != 3 {
		t.Errorf("first word = %s (%d)", v.Words[0], v.Counts[0])
	}
	// Ties broken by first appearance: b before c before d.
	if v.Words[1] != "b" {
		t.Errorf("second word = %s", v.Words[1])
	}
	if id, ok := v.ID("c"); !ok || v.Counts[id] != 1 {
		t.Error("lookup c failed")
	}
	if _, ok := v.ID("zzz"); ok {
		t.Error("unexpected hit")
	}
	// MinCount cuts singletons.
	v2 := BuildVocab(sents, 2)
	if v2.Size() != 2 {
		t.Errorf("minCount=2 size = %d", v2.Size())
	}
}

func TestVocabEncode(t *testing.T) {
	v := BuildVocab([][]string{{"x", "y", "x"}}, 1)
	ids := v.Encode([]string{"x", "unknown", "y"})
	if len(ids) != 2 {
		t.Fatalf("encoded %v", ids)
	}
}

func TestNegativeSamplingDistribution(t *testing.T) {
	// Word frequencies 80/15/5: the ^0.75 smoothing compresses the gap
	// but ordering must hold.
	sents := [][]string{}
	for i := 0; i < 80; i++ {
		sents = append(sents, []string{"hi"})
	}
	for i := 0; i < 15; i++ {
		sents = append(sents, []string{"mid"})
	}
	for i := 0; i < 5; i++ {
		sents = append(sents, []string{"lo"})
	}
	v := BuildVocab(sents, 1)
	r := stats.NewRNG(3, 3)
	counts := make(map[int]int)
	for i := 0; i < 50000; i++ {
		counts[v.sampleNegative(r)]++
	}
	hi, _ := v.ID("hi")
	mid, _ := v.ID("mid")
	lo, _ := v.ID("lo")
	if !(counts[hi] > counts[mid] && counts[mid] > counts[lo]) {
		t.Errorf("sampling counts %v not ordered by frequency", counts)
	}
	if counts[lo] == 0 {
		t.Error("rare word never sampled")
	}
}

// synthetic corpus with two clusters: "jelly" words co-occur, "nut"
// words co-occur, never across.
func clusteredCorpus() [][]string {
	var sents [][]string
	jelly := []string{"zeri", "purupuru", "gelatin", "yawarakai"}
	nuts := []string{"nuts", "sakusaku", "almond", "kurumi"}
	for i := 0; i < 300; i++ {
		j := append([]string{}, jelly...)
		n := append([]string{}, nuts...)
		// rotate for variety
		k := i % 4
		j[0], j[k] = j[k], j[0]
		n[0], n[k] = n[k], n[0]
		sents = append(sents, j, n)
	}
	return sents
}

func trainTestModel(t *testing.T) *Model {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Dim = 16
	cfg.Epochs = 20
	cfg.MinCount = 1
	cfg.Subsample = 0
	m, err := Train(clusteredCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainSeparatesClusters(t *testing.T) {
	m := trainTestModel(t)
	within, err := m.Similarity("purupuru", "zeri")
	if err != nil {
		t.Fatal(err)
	}
	across, err := m.Similarity("purupuru", "nuts")
	if err != nil {
		t.Fatal(err)
	}
	if within <= across {
		t.Errorf("within-cluster sim %.3f should exceed across-cluster %.3f", within, across)
	}
	// sakusaku's neighbours should include nuts.
	nb, err := m.MostSimilar("sakusaku", 3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ws := range nb {
		if ws.Word == "nuts" || ws.Word == "almond" || ws.Word == "kurumi" {
			found = true
		}
	}
	if !found {
		t.Errorf("sakusaku neighbours = %v, want nut words", nb)
	}
}

func TestTrainDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dim = 8
	cfg.Epochs = 2
	cfg.MinCount = 1
	m1, err := Train(clusteredCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(clusteredCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := m1.Vector("zeri")
	v2, _ := m2.Vector("zeri")
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("same seed must give identical embeddings")
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, DefaultConfig()); err == nil {
		t.Error("empty corpus should fail")
	}
	bad := DefaultConfig()
	bad.Dim = 0
	if _, err := Train(clusteredCorpus(), bad); err == nil {
		t.Error("zero dim should fail")
	}
	// Vocabulary empties out at high min count.
	high := DefaultConfig()
	high.MinCount = 10000
	if _, err := Train(clusteredCorpus(), high); err == nil {
		t.Error("impossible min count should fail")
	}
}

func TestVectorAndSimilarityErrors(t *testing.T) {
	m := trainTestModel(t)
	if _, ok := m.Vector("missing"); ok {
		t.Error("unexpected vector")
	}
	if _, err := m.Similarity("missing", "zeri"); err == nil {
		t.Error("want error")
	}
	if _, err := m.MostSimilar("missing", 3); err == nil {
		t.Error("want error")
	}
	// Self similarity of any present word with itself is 1.
	if s, err := m.Similarity("zeri", "zeri"); err != nil || s < 0.999 {
		t.Errorf("self sim = %g, %v", s, err)
	}
	// k clamps to vocab size.
	nb, err := m.MostSimilar("zeri", 100)
	if err != nil || len(nb) != m.Vocab.Size()-1 {
		t.Errorf("clamped neighbours = %d", len(nb))
	}
}

func TestFilterExcludesNutTerms(t *testing.T) {
	m := trainTestModel(t)
	results := Filter(m,
		[]string{"purupuru", "sakusaku", "notinvocab"},
		[]string{"nuts", "almond", "kurumi"},
		4, 0.0)
	byTerm := make(map[string]FilterResult)
	for _, r := range results {
		byTerm[r.Term] = r
	}
	if byTerm["purupuru"].Excluded {
		t.Error("purupuru should survive")
	}
	if !byTerm["sakusaku"].Excluded {
		t.Error("sakusaku should be excluded (nut neighbour)")
	}
	if len(byTerm["sakusaku"].Offending) == 0 {
		t.Error("offending neighbours should be reported")
	}
	if byTerm["notinvocab"].Excluded {
		t.Error("OOV terms should be kept")
	}
}

func TestFilterMinSimGate(t *testing.T) {
	m := trainTestModel(t)
	// With an impossibly high similarity floor nothing is excluded.
	results := Filter(m, []string{"sakusaku"}, []string{"nuts"}, 4, 1.1)
	if results[0].Excluded {
		t.Error("minSim=1.1 should gate everything")
	}
}

func TestSubsampleKeepProb(t *testing.T) {
	sents := [][]string{}
	for i := 0; i < 1000; i++ {
		sents = append(sents, []string{"the", "rare" + fmt.Sprint(i%200)})
	}
	v := BuildVocab(sents, 1)
	the, _ := v.ID("the")
	rare, _ := v.ID("rare0")
	pThe := v.subsampleKeepProb(the, 1e-3)
	pRare := v.subsampleKeepProb(rare, 1e-3)
	if pThe >= pRare {
		t.Errorf("frequent word keep prob %.3f should be below rare %.3f", pThe, pRare)
	}
	if v.subsampleKeepProb(the, 0) != 1 {
		t.Error("threshold 0 disables subsampling")
	}
}
