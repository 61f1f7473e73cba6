package textseg

// Trie is a rune-keyed prefix tree used for longest-match dictionary
// lookup during segmentation. IDs are caller-assigned; inserting the
// same word twice keeps the latest ID.
type Trie struct {
	root trieNode
}

type trieNode struct {
	children map[rune]*trieNode
	id       int
	terminal bool
}

// NewTrie returns an empty trie.
func NewTrie() *Trie { return &Trie{} }

// Insert stores word with the given ID. Word is inserted as-is: callers
// should Normalize first so lookups and insertions share a canonical
// form. Empty words are ignored.
func (t *Trie) Insert(word string, id int) {
	if word == "" {
		return
	}
	n := &t.root
	for _, r := range word {
		if n.children == nil {
			n.children = make(map[rune]*trieNode)
		}
		child, ok := n.children[r]
		if !ok {
			child = &trieNode{}
			n.children[r] = child
		}
		n = child
	}
	n.terminal = true
	n.id = id
}

// LongestMatch finds the longest dictionary word starting at rs[start].
// It returns the matched ID and length in runes, or ok=false when no
// dictionary word starts there.
func (t *Trie) LongestMatch(rs []rune, start int) (id, length int, ok bool) {
	n := &t.root
	for i := start; i < len(rs); i++ {
		if n.children == nil {
			break
		}
		n = n.children[rs[i]]
		if n == nil {
			break
		}
		if n.terminal {
			id, length, ok = n.id, i-start+1, true
		}
	}
	return id, length, ok
}
