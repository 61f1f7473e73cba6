package recipe

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON streams recipes as a JSON array.
func WriteJSON(w io.Writer, recipes []*Recipe) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(recipes); err != nil {
		return fmt.Errorf("recipe: encoding: %w", err)
	}
	return nil
}

// ReadJSON reads a JSON array of recipes, as written by WriteJSON.
func ReadJSON(r io.Reader) ([]*Recipe, error) {
	var out []*Recipe
	dec := json.NewDecoder(r)
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("recipe: decoding: %w", err)
	}
	return out, nil
}
