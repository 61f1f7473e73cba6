package recipe

import (
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// readLenient collects every recipe StreamJSONLenient decodes from r.
func readLenient(r io.Reader, maxRecordBytes int) ([]*Recipe, *DecodeReport, error) {
	var out []*Recipe
	report, err := StreamJSONLenient(r, maxRecordBytes, func(rec *Recipe) error {
		out = append(out, rec)
		return nil
	})
	return out, report, err
}

func TestReadJSONLenientSkipsMalformedRecords(t *testing.T) {
	input := `[
		{"id":"r1","title":"ゼリー","description":"ぷるぷる"},
		{"id":"r2","title":123,"description":"bad title type"},
		null,
		{"id":"r3","title":"ムース","description":"ふわふわ","ingredients":[{"name":"ゼラチン","amount":"5g"}]}
	]`
	recipes, report, err := readLenient(strings.NewReader(input), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recipes) != 2 || recipes[0].ID != "r1" || recipes[1].ID != "r3" {
		t.Fatalf("kept %v, want r1 and r3", recipes)
	}
	if report.Decoded != 2 || len(report.Skipped) != 2 {
		t.Fatalf("report = %+v, want 2 decoded / 2 skipped", report)
	}
	if report.Skipped[0].Index != 1 {
		t.Fatalf("first skip index = %d, want 1 (the type-mismatch record)", report.Skipped[0].Index)
	}
	if report.Skipped[1].Index != 2 || report.Skipped[1].Reason != "null record" {
		t.Fatalf("second skip = %+v, want the null at index 2", report.Skipped[1])
	}
	for _, sk := range report.Skipped {
		if sk.Offset <= 0 {
			t.Fatalf("skip %+v carries no byte offset", sk)
		}
	}
}

func TestReadJSONLenientEnforcesRecordSizeCap(t *testing.T) {
	huge := `{"id":"big","title":"` + strings.Repeat("あ", 400) + `","description":"x"}`
	input := `[{"id":"ok","title":"t","description":"d"},` + huge + `]`
	recipes, report, err := readLenient(strings.NewReader(input), 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(recipes) != 1 || recipes[0].ID != "ok" {
		t.Fatalf("kept %v, want only the small record", recipes)
	}
	if len(report.Skipped) != 1 || !strings.Contains(report.Skipped[0].Reason, "cap") {
		t.Fatalf("report = %+v, want one size-cap skip", report)
	}
}

// TestReadJSONLenientStrictFraming: leniency is per-element; broken
// array framing cannot be resynchronized and must fail the decode.
// (Input that does not start with '[' is JSONL, not broken framing —
// see TestStreamJSONLenientJSONL.)
func TestReadJSONLenientStrictFraming(t *testing.T) {
	for name, input := range map[string]string{
		"syntax-error": `[{"id":"a"}, {]`,
		"truncated":    `[{"id":"a"},`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, _, err := readLenient(strings.NewReader(input), 0); err == nil {
				t.Fatal("broken framing decoded without error")
			}
		})
	}
	// A bare object is one JSONL record, a drop-in for single-record
	// ingestion rather than an error.
	recipes, report, err := readLenient(strings.NewReader(`{"id":"x","title":"t","description":"d"}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recipes) != 1 || recipes[0].ID != "x" || report.Decoded != 1 {
		t.Fatalf("bare object decoded as %v / %+v", recipes, report)
	}
}

// TestReadJSONLenientMatchesStrictOnCleanInput: on a well-formed file
// the lenient decoder is a drop-in for ReadJSON.
func TestReadJSONLenientMatchesStrictOnCleanInput(t *testing.T) {
	recipes := []*Recipe{
		{ID: "a", Title: "t1", Description: "d1", Truth: -1},
		{ID: "b", Title: "t2", Description: "d2", Truth: 2,
			Ingredients: []Ingredient{{Name: "寒天", Amount: "2g"}}},
	}
	var buf strings.Builder
	if err := WriteJSON(&buf, recipes); err != nil {
		t.Fatal(err)
	}
	strict, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	lenient, report, err := readLenient(strings.NewReader(buf.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Skipped) != 0 || report.Decoded != len(strict) {
		t.Fatalf("report = %+v on clean input", report)
	}
	if len(lenient) != len(strict) {
		t.Fatalf("lenient decoded %d, strict %d", len(lenient), len(strict))
	}
	for i := range strict {
		if !reflect.DeepEqual(lenient[i], strict[i]) {
			t.Fatalf("record %d differs: %+v vs %+v", i, lenient[i], strict[i])
		}
	}
}

// TestReadJSONLenientOffsetIsRecordStart is the regression test for
// the skip-report offsets: they used to carry the decoder's post-read
// position of the *previous* element (pointing at a comma or
// whitespace), not the byte where the bad record begins. Seeking to
// the reported offset must land exactly on the record's first byte.
func TestReadJSONLenientOffsetIsRecordStart(t *testing.T) {
	input := `[ {"id":"r1","title":"t","description":"d"} ,
		{"id":"r2","title":123,"description":"bad"},
		null ]`
	_, report, err := readLenient(strings.NewReader(input), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Skipped) != 2 {
		t.Fatalf("report = %+v, want 2 skips", report)
	}
	for _, sk := range report.Skipped {
		off := int(sk.Offset)
		if off < 0 || off >= len(input) {
			t.Fatalf("skip %+v: offset outside input", sk)
		}
		rest := input[off:]
		var want string
		switch sk.Index {
		case 1:
			want = `{"id":"r2"`
		case 2:
			want = `null`
		default:
			t.Fatalf("unexpected skip index %d", sk.Index)
		}
		if !strings.HasPrefix(rest, want) {
			t.Errorf("offset %d for record %d points at %q, want the record start %q",
				off, sk.Index, rest[:min(20, len(rest))], want)
		}
	}
}

// TestStreamJSONLenientJSONL: JSONL framing decodes line-at-a-time,
// resynchronizes on newlines after even syntactically broken lines,
// and reports record-start offsets that seek to the bad line.
func TestStreamJSONLenientJSONL(t *testing.T) {
	input := `{"id":"a","title":"t1","description":"d1"}
{"id":"b","title":123}
{broken json
  {"id":"c","title":"t3","description":"d3"}

null
{"id":"d","title":"t4","description":"d4"}`
	var got []string
	report, err := StreamJSONLenient(strings.NewReader(input), 0, func(r *Recipe) error {
		got = append(got, r.ID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "c", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	if report.Decoded != 3 || len(report.Skipped) != 3 {
		t.Fatalf("report = %+v, want 3 decoded / 3 skipped", report)
	}
	for _, sk := range report.Skipped {
		rest := input[sk.Offset:]
		if strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "\n") {
			t.Errorf("skip %+v: offset points at whitespace", sk)
		}
	}
	// The indented record c: its skip-free offset contract holds for
	// kept records too — verify via the broken line's offset landing on
	// the '{' of "{broken".
	if idx := strings.Index(input, "{broken"); int64(idx) != report.Skipped[1].Offset {
		t.Errorf("broken-line offset = %d, want %d", report.Skipped[1].Offset, idx)
	}
}

// TestStreamJSONLenientJSONLSizeCap: an oversized line is skipped and
// fully consumed without derailing later records (and without
// buffering it — the cap bounds memory, which this can only assert
// indirectly by the decode succeeding).
func TestStreamJSONLenientJSONLSizeCap(t *testing.T) {
	huge := `{"id":"big","title":"` + strings.Repeat("x", 4096) + `","description":"d"}`
	input := `{"id":"ok1","title":"t","description":"d"}` + "\n" + huge + "\n" +
		`{"id":"ok2","title":"t","description":"d"}` + "\n"
	var got []string
	report, err := StreamJSONLenient(strings.NewReader(input), 256, func(r *Recipe) error {
		got = append(got, r.ID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"ok1", "ok2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	if len(report.Skipped) != 1 || !strings.Contains(report.Skipped[0].Reason, "cap") {
		t.Fatalf("report = %+v, want one size-cap skip", report)
	}
	if report.Skipped[0].Index != 1 {
		t.Errorf("size-cap skip index = %d, want 1", report.Skipped[0].Index)
	}
}

// TestStreamJSONLenientCallbackAbort: a callback error stops the
// stream immediately and surfaces verbatim.
func TestStreamJSONLenientCallbackAbort(t *testing.T) {
	input := `{"id":"a","title":"t","description":"d"}
{"id":"b","title":"t","description":"d"}
{"id":"c","title":"t","description":"d"}`
	sentinel := errors.New("stop here")
	seen := 0
	_, err := StreamJSONLenient(strings.NewReader(input), 0, func(r *Recipe) error {
		seen++
		if r.ID == "b" {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the callback's sentinel", err)
	}
	if seen != 2 {
		t.Fatalf("callback ran %d times, want 2", seen)
	}
}

// TestReadJSONLenientJSONLRoundTrip: a JSONL corpus decodes to the
// same records as the equivalent JSON array.
func TestReadJSONLenientJSONLRoundTrip(t *testing.T) {
	recipes := []*Recipe{
		{ID: "a", Title: "t1", Description: "d1", Truth: -1},
		{ID: "b", Title: "t2", Description: "d2", Truth: 2,
			Ingredients: []Ingredient{{Name: "寒天", Amount: "2g"}}},
	}
	var arr strings.Builder
	if err := WriteJSON(&arr, recipes); err != nil {
		t.Fatal(err)
	}
	var lines strings.Builder
	for _, r := range recipes {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines.Write(b)
		lines.WriteByte('\n')
	}
	fromArr, _, err := readLenient(strings.NewReader(arr.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	fromLines, _, err := readLenient(strings.NewReader(lines.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromArr, fromLines) {
		t.Fatalf("JSONL decode differs from array decode:\n%+v\nvs\n%+v", fromLines, fromArr)
	}
}
