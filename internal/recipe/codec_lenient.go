package recipe

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// DefaultMaxRecordBytes is the lenient decoders' per-record size cap.
// A single recipe is a few KB; a megabyte-sized element is a scrape
// artifact (or an attack), not data.
const DefaultMaxRecordBytes = 1 << 20

// SkippedRecord reports one record the lenient decoder dropped.
type SkippedRecord struct {
	// Index is the record's position in the input (array element index
	// or JSONL record index, blank lines excluded).
	Index int `json:"index"`
	// Offset is the byte offset in the input stream where the record
	// itself begins (leading whitespace excluded) — enough to seek to it
	// in the source file.
	Offset int64 `json:"offset"`
	// Reason says why it was dropped (unmarshal error, size cap, null).
	Reason string `json:"reason"`
}

// DecodeReport summarizes a lenient decode: how many records made it
// and exactly which ones did not.
type DecodeReport struct {
	// Decoded counts records successfully decoded.
	Decoded int `json:"decoded"`
	// Skipped lists every dropped record in input order.
	Skipped []SkippedRecord `json:"skipped,omitempty"`
}

// ReadJSONLenient reads recipes like ReadJSON, but in a streaming
// record-at-a-time mode that skips malformed records instead of
// failing the whole file — the reality of scraped recipe dumps, where
// one bad row should not discard a million good ones. It accepts both
// framings StreamJSONLenient does (JSON array and JSONL); see there
// for the leniency contract.
func ReadJSONLenient(r io.Reader, maxRecordBytes int) ([]*Recipe, *DecodeReport, error) {
	var out []*Recipe
	report, err := StreamJSONLenient(r, maxRecordBytes, func(rec *Recipe) error {
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, report, nil
}

// StreamJSONLenient is the callback form of ReadJSONLenient: each
// successfully decoded recipe is handed to fn without the decoder ever
// holding more than one record in memory, which is what lets corpus
// ingestion run in O(batch) rather than O(corpus) memory. A non-nil
// error from fn aborts the stream and is returned verbatim.
//
// Two framings are auto-detected from the first non-whitespace byte:
// a '[' starts a JSON array (ReadJSON's format); anything else is
// treated as JSONL, one JSON object per line. Leniency differs with
// the framing: inside an array a record-level problem (unmarshal
// error, size cap, null) skips that element, but a syntax error breaks
// the element framing itself and fails the decode; in JSONL mode the
// newline re-synchronizes the stream, so even a syntactically mangled
// line skips just that line. Records larger than maxRecordBytes
// (DefaultMaxRecordBytes when ≤ 0) are skipped without buffering them.
// Every skip is reported with its record index and the byte offset of
// the record start.
func StreamJSONLenient(r io.Reader, maxRecordBytes int, fn func(*Recipe) error) (*DecodeReport, error) {
	if maxRecordBytes <= 0 {
		maxRecordBytes = DefaultMaxRecordBytes
	}
	br := bufio.NewReaderSize(r, 64<<10)
	first, err := peekNonSpace(br)
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("recipe: decoding recipes: empty input")
		}
		return nil, fmt.Errorf("recipe: decoding recipes: %w", err)
	}
	if first == '[' {
		return streamArrayLenient(br, maxRecordBytes, fn)
	}
	return streamLinesLenient(br, maxRecordBytes, fn)
}

// peekNonSpace returns the first byte past any JSON whitespace without
// consuming it.
func peekNonSpace(br *bufio.Reader) (byte, error) {
	for {
		b, err := br.Peek(1)
		if err != nil {
			return 0, err
		}
		switch b[0] {
		case ' ', '\t', '\n', '\r':
			if _, err := br.Discard(1); err != nil {
				return 0, err
			}
		default:
			return b[0], nil
		}
	}
}

// streamArrayLenient walks one well-formed JSON array element by
// element. Leniency is per-element only: a syntax error breaks the
// element framing itself — there is no safe way to resynchronize — so
// it fails the decode like ReadJSON does.
func streamArrayLenient(br *bufio.Reader, maxRecordBytes int, emit func(*Recipe) error) (*DecodeReport, error) {
	dec := json.NewDecoder(br)
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("recipe: decoding recipes: %w", err)
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '[' {
		return nil, fmt.Errorf("recipe: decoding recipes: input is not a JSON array (starts with %v)", tok)
	}
	report := &DecodeReport{}
	for index := 0; dec.More(); index++ {
		// Capture the raw element first: a per-record size or unmarshal
		// problem must consume exactly one element and move on. Only a
		// raw-level error is a syntax error in the framing itself — fatal.
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, fmt.Errorf("recipe: decoding recipes: array element %d near offset %d: %w",
				index, dec.InputOffset(), err)
		}
		// The decoder hands the element's bytes back verbatim, so the
		// record started exactly len(raw) bytes before the decoder's
		// current position — not at the post-read offset of the previous
		// element, which is what a seek-to-the-bad-record log needs.
		offset := dec.InputOffset() - int64(len(raw))
		if len(raw) > maxRecordBytes {
			report.Skipped = append(report.Skipped, SkippedRecord{
				Index:  index,
				Offset: offset,
				Reason: fmt.Sprintf("record is %d bytes, cap is %d", len(raw), maxRecordBytes),
			})
			continue
		}
		var v *Recipe
		if err := json.Unmarshal(raw, &v); err != nil {
			report.Skipped = append(report.Skipped, SkippedRecord{
				Index:  index,
				Offset: offset,
				Reason: err.Error(),
			})
			continue
		}
		if v == nil { // a JSON null decodes into a nil *Recipe without error
			report.Skipped = append(report.Skipped, SkippedRecord{
				Index:  index,
				Offset: offset,
				Reason: "null record",
			})
			continue
		}
		if err := emit(v); err != nil {
			return nil, err
		}
		report.Decoded++
	}
	if _, err := dec.Token(); err != nil { // closing ']'
		return nil, fmt.Errorf("recipe: decoding recipes: unterminated array: %w", err)
	}
	return report, nil
}

// streamLinesLenient walks JSONL input: one record per line, blank
// lines ignored. The newline is a resynchronization point, so every
// per-line problem — syntax damage included — skips exactly that line.
// Oversized lines are skipped without ever buffering more than the cap.
func streamLinesLenient(br *bufio.Reader, maxRecordBytes int, emit func(*Recipe) error) (*DecodeReport, error) {
	report := &DecodeReport{}
	var pos int64 // byte offset of the next line's start
	for index := 0; ; {
		kept, lineLen, consumed, err := readCappedLine(br, maxRecordBytes)
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("recipe: decoding recipes: reading line at offset %d: %w", pos, err)
		}
		lineStart := pos
		pos += consumed
		atEOF := err == io.EOF
		if consumed == 0 && atEOF {
			return report, nil
		}
		trimmed := bytes.TrimSpace(kept)
		if len(trimmed) == 0 && lineLen <= int64(len(kept)) {
			// Genuinely blank line (not an oversized all-whitespace one,
			// which the size cap below reports).
			if atEOF {
				return report, nil
			}
			continue
		}
		// Record start = line start + leading whitespace.
		recStart := lineStart
		if i := bytes.IndexFunc(kept, notSpace); i > 0 {
			recStart += int64(i)
		}
		switch {
		case lineLen > int64(maxRecordBytes):
			report.Skipped = append(report.Skipped, SkippedRecord{
				Index:  index,
				Offset: recStart,
				Reason: fmt.Sprintf("record is %d bytes, cap is %d", lineLen, maxRecordBytes),
			})
		default:
			var v *Recipe
			if uerr := json.Unmarshal(trimmed, &v); uerr != nil {
				report.Skipped = append(report.Skipped, SkippedRecord{
					Index:  index,
					Offset: recStart,
					Reason: uerr.Error(),
				})
			} else if v == nil {
				report.Skipped = append(report.Skipped, SkippedRecord{
					Index:  index,
					Offset: recStart,
					Reason: "null record",
				})
			} else {
				if eerr := emit(v); eerr != nil {
					return nil, eerr
				}
				report.Decoded++
			}
		}
		index++
		if atEOF {
			return report, nil
		}
	}
}

func notSpace(r rune) bool {
	switch r {
	case ' ', '\t', '\r', '\n':
		return false
	}
	return true
}

// readCappedLine reads one newline-terminated line, retaining at most
// keep bytes of its content, and reports the full content length
// (newline excluded) plus the total bytes consumed (newline included).
// The tail of an over-cap line is consumed and discarded, never
// buffered. A final line without a trailing newline returns io.EOF
// alongside its content.
func readCappedLine(br *bufio.Reader, keep int) (kept []byte, lineLen int64, consumed int64, err error) {
	for {
		chunk, cerr := br.ReadSlice('\n')
		consumed += int64(len(chunk))
		content := chunk
		if cerr == nil { // delimiter found
			content = chunk[:len(chunk)-1]
		}
		lineLen += int64(len(content))
		if room := keep - len(kept); room > 0 {
			if len(content) > room {
				content = content[:room]
			}
			kept = append(kept, content...)
		}
		if cerr == bufio.ErrBufferFull {
			continue
		}
		return kept, lineLen, consumed, cerr
	}
}
