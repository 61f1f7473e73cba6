package lexicon

import (
	"fmt"
	"sync"

	"repro/internal/textseg"
)

// Dictionary is an immutable indexed collection of texture terms.
type Dictionary struct {
	terms    []Term
	byKana   map[string]int
	byRomaji map[string]int

	// tok is the shared extraction tokenizer, built on first use. The
	// trie behind it is never mutated afterwards, so one instance
	// serves all goroutines; rebuilding it per extraction dominated
	// the annotation hot path before it was cached here.
	tokOnce sync.Once
	tok     *textseg.Tokenizer
}

var (
	defaultOnce sync.Once
	defaultDict *Dictionary
)

// Default returns the shared 288-term dictionary. The value is built
// once and must not be mutated.
func Default() *Dictionary {
	defaultOnce.Do(func() {
		d, err := New(expand())
		if err != nil {
			panic("lexicon: default dictionary is inconsistent: " + err.Error())
		}
		defaultDict = d
	})
	return defaultDict
}

// New builds a dictionary from a term list. IDs must be dense indices
// 0..len-1; kana and romaji forms must be unique.
func New(terms []Term) (*Dictionary, error) {
	d := &Dictionary{
		terms:    terms,
		byKana:   make(map[string]int, len(terms)),
		byRomaji: make(map[string]int, len(terms)),
	}
	for i, t := range terms {
		if t.ID != i {
			return nil, fmt.Errorf("lexicon: term %q has ID %d at index %d", t.Kana, t.ID, i)
		}
		norm := textseg.Normalize(t.Kana)
		if norm != t.Kana {
			return nil, fmt.Errorf("lexicon: term %q is not in normalized form (want %q)", t.Kana, norm)
		}
		if prev, dup := d.byKana[t.Kana]; dup {
			return nil, fmt.Errorf("lexicon: duplicate kana %q (IDs %d and %d)", t.Kana, prev, i)
		}
		if prev, dup := d.byRomaji[t.Romaji]; dup {
			return nil, fmt.Errorf("lexicon: duplicate romaji %q (IDs %d and %d)", t.Romaji, prev, i)
		}
		d.byKana[t.Kana] = i
		d.byRomaji[t.Romaji] = i
	}
	return d, nil
}

// Len returns the number of terms.
func (d *Dictionary) Len() int { return len(d.terms) }

// Term returns the term with the given ID. It panics on out-of-range
// IDs, which indicate a programming error (IDs only come from this
// dictionary).
func (d *Dictionary) Term(id int) Term {
	return d.terms[id]
}

// ByKana finds a term by its normalized kana form.
func (d *Dictionary) ByKana(kana string) (Term, bool) {
	id, ok := d.byKana[textseg.Normalize(kana)]
	if !ok {
		return Term{}, false
	}
	return d.terms[id], true
}

// ByRomaji finds a term by its romanized form.
func (d *Dictionary) ByRomaji(r string) (Term, bool) {
	id, ok := d.byRomaji[r]
	if !ok {
		return Term{}, false
	}
	return d.terms[id], true
}

// Trie builds a textseg dictionary trie over the kana forms, keyed by
// term ID, for use with textseg.NewTokenizer.
func (d *Dictionary) Trie() *textseg.Trie {
	tr := textseg.NewTrie()
	for _, t := range d.terms {
		tr.Insert(t.Kana, t.ID)
	}
	return tr
}

// Tokenizer returns a tokenizer whose dictionary hits are texture terms
// of this dictionary. Each call returns a fresh Tokenizer (callers may
// set KeepPunct), but all of them share one immutable trie.
func (d *Dictionary) Tokenizer() *textseg.Tokenizer {
	return textseg.NewTokenizer(d.sharedTokenizer().Dict())
}

// sharedTokenizer lazily builds the one trie-backed tokenizer behind
// ExtractTermIDs and Tokenizer.
func (d *Dictionary) sharedTokenizer() *textseg.Tokenizer {
	d.tokOnce.Do(func() {
		d.tok = textseg.NewTokenizer(d.Trie())
	})
	return d.tok
}

// ExtractTermIDs tokenizes text and returns the IDs of the texture
// terms found, in order of appearance (with repetitions).
func (d *Dictionary) ExtractTermIDs(text string) []int {
	return d.sharedTokenizer().DictIDs(text)
}

// GelRelated returns the IDs of all gel-related terms.
func (d *Dictionary) GelRelated() []int {
	var out []int
	for _, t := range d.terms {
		if t.GelRelated {
			out = append(out, t.ID)
		}
	}
	return out
}

// SenseCounts tallies how many of the given term IDs fall into each
// sense class on the hardness and cohesiveness axes; used by the
// Figure 3 histograms.
func (d *Dictionary) SenseCounts(ids []int) map[SenseClass]int {
	out := make(map[SenseClass]int)
	for _, id := range ids {
		t := d.terms[id]
		if s := t.HardnessSense(); s != SenseNone {
			out[s]++
		}
		if s := t.CohesivenessSense(); s != SenseNone {
			out[s]++
		}
		if s := t.AdhesivenessSense(); s != SenseNone {
			out[s]++
		}
	}
	return out
}
