package textseg

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalizeFullWidthASCII(t *testing.T) {
	if got := Normalize("ＡＢＣ１２３！"); got != "abc123!" {
		t.Errorf("Normalize = %q", got)
	}
}

func TestNormalizeKatakanaFolds(t *testing.T) {
	if got := Normalize("プルプル"); got != "ぷるぷる" {
		t.Errorf("Normalize = %q", got)
	}
	// Prolonged sound mark is preserved.
	if got := Normalize("クリーム"); got != "くりーむ" {
		t.Errorf("Normalize = %q", got)
	}
}

func TestNormalizeHalfWidthKatakana(t *testing.T) {
	// ﾌﾟﾙﾌﾟﾙ with handakuten marks.
	in := "ﾌﾟﾙﾌﾟﾙ"
	if got := Normalize(in); got != "ぷるぷる" {
		t.Errorf("Normalize(half-width) = %q", got)
	}
	// Dakuten: ｶﾞ → が.
	if got := Normalize("ｶﾞ"); got != "が" {
		t.Errorf("Normalize(dakuten) = %q", got)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		return Normalize(n) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	for _, s := range []string{"プルプル！ＡＢＣ", "ｶﾞｷﾞｸﾞ", "ゼリーは固い"} {
		n := Normalize(s)
		if Normalize(n) != n {
			t.Errorf("not idempotent on %q: %q vs %q", s, n, Normalize(n))
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		r    rune
		want Class
	}{
		{'あ', ClassHiragana}, {'ー', ClassHiragana}, {'ア', ClassKatakana},
		{'固', ClassKanji}, {'々', ClassKanji}, {'a', ClassLatin}, {'7', ClassDigit},
		{' ', ClassSpace}, {'　', ClassSpace}, {'、', ClassPunct}, {'!', ClassPunct},
		{'♪', ClassPunct},
	}
	for _, c := range cases {
		if got := ClassOf(c.r); got != c.want {
			t.Errorf("ClassOf(%q) = %v, want %v", c.r, got, c.want)
		}
	}
}

// lookup reports the ID of word if the trie stores exactly it: the
// longest match over word alone must cover all of it.
func lookup(tr *Trie, word string) (int, bool) {
	rs := []rune(word)
	id, n, ok := tr.LongestMatch(rs, 0)
	return id, ok && n == len(rs)
}

func TestTrieBasics(t *testing.T) {
	tr := NewTrie()
	tr.Insert("ぷるぷる", 1)
	tr.Insert("ぷる", 2)
	tr.Insert("かたい", 3)
	if id, ok := lookup(tr, "ぷる"); !ok || id != 2 {
		t.Errorf("lookup(ぷる) = %d, %v", id, ok)
	}
	if _, ok := lookup(tr, "ぷるぷ"); ok {
		t.Error("prefix should not match")
	}
	// Re-insert updates the ID.
	tr.Insert("ぷる", 9)
	if id, _ := lookup(tr, "ぷる"); id != 9 {
		t.Error("reinsert should update id")
	}
}

func TestTrieLongestMatch(t *testing.T) {
	tr := NewTrie()
	tr.Insert("ぷる", 1)
	tr.Insert("ぷるぷる", 2)
	rs := []rune("ぷるぷるです")
	id, n, ok := tr.LongestMatch(rs, 0)
	if !ok || id != 2 || n != 4 {
		t.Errorf("LongestMatch = (%d,%d,%v), want (2,4,true)", id, n, ok)
	}
	// At position 2 only the short word matches.
	id, n, ok = tr.LongestMatch(rs, 2)
	if !ok || id != 1 || n != 2 {
		t.Errorf("LongestMatch@2 = (%d,%d,%v)", id, n, ok)
	}
	if _, _, ok := tr.LongestMatch(rs, 4); ok {
		t.Error("no match expected at で")
	}
}

func newTestTokenizer() *Tokenizer {
	tr := NewTrie()
	for i, w := range []string{"ぷるぷる", "ふるふる", "かたい", "ゼリー", "ないしょ"} {
		tr.Insert(Normalize(w), i+1)
	}
	return NewTokenizer(tr)
}

func TestTokenizeDictionaryInterruptsRun(t *testing.T) {
	tok := newTestTokenizer()
	got := Surfaces(tok.Tokenize("とてもぷるぷるです"))
	want := []string{"とても", "ぷるぷる", "です"}
	if strings.Join(got, "/") != strings.Join(want, "/") {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeClassBoundaries(t *testing.T) {
	tok := newTestTokenizer()
	got := tok.Tokenize("ゼリー100g、とword")
	surfaces := Surfaces(got)
	want := []string{"ぜりー", "100", "g", "と", "word"}
	if strings.Join(surfaces, "/") != strings.Join(want, "/") {
		t.Errorf("Tokenize = %v, want %v", surfaces, want)
	}
	if !got[0].InDict {
		t.Error("ゼリー (normalized) should be a dictionary hit")
	}
	if got[1].Class != ClassDigit || got[2].Class != ClassLatin {
		t.Error("classes wrong")
	}
}

func TestTokenizePunctHandling(t *testing.T) {
	tok := newTestTokenizer()
	if got := len(tok.Tokenize("、、、")); got != 0 {
		t.Errorf("punct should be dropped by default, got %d tokens", got)
	}
	tok.KeepPunct = true
	if got := len(tok.Tokenize("、、、")); got != 3 {
		t.Errorf("KeepPunct should emit punct, got %d", got)
	}
}

func TestDictTokens(t *testing.T) {
	tok := newTestTokenizer()
	hits := tok.DictTokens("このゼリーはぷるぷるでかたいです")
	want := []string{"ぜりー", "ぷるぷる", "かたい"}
	if strings.Join(Surfaces(hits), "/") != strings.Join(want, "/") {
		t.Errorf("DictTokens = %v, want %v", Surfaces(hits), want)
	}
	for _, h := range hits {
		if !h.InDict {
			t.Error("DictTokens returned non-dictionary token")
		}
	}
}

func TestTokenizeKatakanaMatchesHiraganaEntry(t *testing.T) {
	tok := newTestTokenizer()
	hits := tok.DictTokens("プルプルのゼリー")
	if len(hits) != 2 || hits[0].DictID != 1 {
		t.Errorf("katakana surface should fold to dictionary form; hits=%v", hits)
	}
}

func TestTokenizeEmptyAndSpaces(t *testing.T) {
	tok := newTestTokenizer()
	if got := tok.Tokenize(""); len(got) != 0 {
		t.Error("empty input should yield no tokens")
	}
	if got := tok.Tokenize("  　\n"); len(got) != 0 {
		t.Error("whitespace-only input should yield no tokens")
	}
}

func TestTokenizeNeverLosesNonSpaceRunes(t *testing.T) {
	tok := newTestTokenizer()
	tok.KeepPunct = true
	f := func(s string) bool {
		norm := []rune(Normalize(s))
		var kept int
		for _, r := range norm {
			if ClassOf(r) != ClassSpace {
				kept++
			}
		}
		total := 0
		for _, tk := range tok.Tokenize(s) {
			total += len([]rune(tk.Surface))
		}
		return total == kept
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNilDictTokenizer(t *testing.T) {
	tok := NewTokenizer(nil)
	got := tok.Tokenize("ぷるぷる123")
	if len(got) != 2 {
		t.Errorf("got %v", got)
	}
}

// Property: the trie agrees with a map-based reference on lookup and
// longest-match for random word sets over a small alphabet.
func TestTrieMatchesReferenceProperty(t *testing.T) {
	alphabet := []rune("あいう")
	randWord := func(seed *uint64) string {
		*seed = *seed*6364136223846793005 + 1442695040888963407
		n := 1 + int(*seed>>33)%4
		rs := make([]rune, n)
		for i := range rs {
			*seed = *seed*6364136223846793005 + 1442695040888963407
			rs[i] = alphabet[int(*seed>>33)%len(alphabet)]
		}
		return string(rs)
	}
	f := func(seed uint64) bool {
		tr := NewTrie()
		ref := map[string]int{}
		for i := 0; i < 12; i++ {
			w := randWord(&seed)
			tr.Insert(w, i)
			ref[w] = i
		}
		// Lookup agreement.
		for w, id := range ref {
			got, ok := lookup(tr, w)
			if !ok || got != id {
				return false
			}
		}
		// Longest-match agreement on a random text.
		text := []rune(randWord(&seed) + randWord(&seed) + randWord(&seed))
		for start := 0; start < len(text); start++ {
			wantID, wantLen, wantOK := 0, 0, false
			for end := start + 1; end <= len(text); end++ {
				if id, ok := ref[string(text[start:end])]; ok {
					wantID, wantLen, wantOK = id, end-start, true
				}
			}
			gotID, gotLen, gotOK := tr.LongestMatch(text, start)
			if gotOK != wantOK || (wantOK && (gotID != wantID || gotLen != wantLen)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDictIDsMatchesDictTokens: the allocation-lean extraction path
// must segment exactly like the full tokenizer.
func TestDictIDsMatchesDictTokens(t *testing.T) {
	tr := NewTrie()
	tr.Insert("ぷるぷる", 1)
	tr.Insert("ぷる", 2)
	tr.Insert("かたい", 3)
	tr.Insert("ねっとり", 4)
	tok := NewTokenizer(tr)
	for _, text := range []string{
		"",
		"このゼリーはぷるぷるでねっとりしていて、かたいです。",
		"ぷるぷるぷるぷる",
		"ぷるんぷるん",
		"とても ぷるぷる です！ＰＵＲＵ",
		"ｶﾀｲかたいカタイ",
		"abcかたい123ねっとりxyz",
		"。。。、、、",
	} {
		want := []int{}
		for _, tk := range tok.DictTokens(text) {
			want = append(want, tk.DictID)
		}
		got := tok.DictIDs(text)
		if len(got) != len(want) {
			t.Fatalf("%q: DictIDs %v, DictTokens IDs %v", text, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q: DictIDs %v, DictTokens IDs %v", text, got, want)
			}
		}
	}
}

// DictTokens returns only the dictionary-matched tokens of text, in
// order. This is the operation the mining pipeline uses to extract
// texture-term sequences from recipe descriptions.
func (t *Tokenizer) DictTokens(text string) []Token {
	all := t.Tokenize(text)
	out := all[:0:0]
	for _, tok := range all {
		if tok.InDict {
			out = append(out, tok)
		}
	}
	return out
}
