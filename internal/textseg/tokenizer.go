package textseg

// Token is one segment of input text.
type Token struct {
	Surface string // normalized surface form
	Class   Class  // writing-system class of the first rune
	DictID  int    // dictionary ID when InDict
	InDict  bool   // true when the token matched a dictionary entry
}

// Tokenizer segments normalized text by dictionary longest-match with
// character-class chunking as fallback.
type Tokenizer struct {
	dict *Trie
	// KeepPunct controls whether punctuation tokens are emitted; spaces
	// are never emitted.
	KeepPunct bool
}

// NewTokenizer returns a tokenizer over the given dictionary trie.
// A nil dict is treated as an empty dictionary.
func NewTokenizer(dict *Trie) *Tokenizer {
	if dict == nil {
		dict = NewTrie()
	}
	return &Tokenizer{dict: dict}
}

// Tokenize normalizes and segments text.
//
// At each position the longest dictionary match wins. Otherwise a
// maximal run of the same character class is emitted as an unknown
// token — except that a dictionary match is allowed to interrupt the
// run, so "とてもぷるぷるです" yields とても / ぷるぷる / です even
// though all three are hiragana.
func (t *Tokenizer) Tokenize(text string) []Token {
	rs := []rune(Normalize(text))
	var out []Token
	i := 0
	for i < len(rs) {
		c := ClassOf(rs[i])
		if c == ClassSpace {
			i++
			continue
		}
		if c == ClassPunct {
			if t.KeepPunct {
				out = append(out, Token{Surface: string(rs[i]), Class: c})
			}
			i++
			continue
		}
		if id, n, ok := t.dict.LongestMatch(rs, i); ok {
			out = append(out, Token{Surface: string(rs[i : i+n]), Class: c, DictID: id, InDict: true})
			i += n
			continue
		}
		// Unknown run of the same class, stopping early if a dictionary
		// word begins mid-run.
		j := i + 1
		for j < len(rs) && ClassOf(rs[j]) == c {
			if _, _, ok := t.dict.LongestMatch(rs, j); ok {
				break
			}
			j++
		}
		out = append(out, Token{Surface: string(rs[i:j]), Class: c})
		i = j
	}
	return out
}

// Dict exposes the tokenizer's dictionary trie. The trie is shared,
// not copied; callers must not Insert into it while the tokenizer is
// in use.
func (t *Tokenizer) Dict() *Trie {
	return t.dict
}

// DictIDs returns the dictionary IDs matched in text, in order of
// appearance. It walks the same longest-match segmentation as
// Tokenize but materializes no surface strings and no Token records —
// this is the extraction kernel the annotation hot path runs per
// recipe.
func (t *Tokenizer) DictIDs(text string) []int {
	rs := []rune(Normalize(text))
	var out []int
	i := 0
	for i < len(rs) {
		c := ClassOf(rs[i])
		if c == ClassSpace || c == ClassPunct {
			i++
			continue
		}
		if id, n, ok := t.dict.LongestMatch(rs, i); ok {
			out = append(out, id)
			i += n
			continue
		}
		// Skip the unknown run, stopping where a dictionary word begins.
		i++
		for i < len(rs) && ClassOf(rs[i]) == c {
			if _, _, ok := t.dict.LongestMatch(rs, i); ok {
				break
			}
			i++
		}
	}
	return out
}

// Surfaces projects tokens to their surface strings.
func Surfaces(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Surface
	}
	return out
}
