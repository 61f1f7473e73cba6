// CombinedSource: the refit corpus — the frozen base stream with the
// WAL's accepted recipes appended as JSONL.
package ingest

import (
	"encoding/json"
	"io"
	"strings"

	"repro/internal/pipeline"
)

// CombinedSource builds the reopenable stream a re-fit consumes: the
// base corpus (JSONL — a FileSource or GeneratedSource; may be nil for
// a WAL-only corpus) followed by every WAL record with Seq ≤ upTo,
// deduplicated by canonical hash, one JSON document per line.
//
// Determinism is the point: RunStream reads its source twice, and a
// resumed re-fit must see byte-identical input, so the WAL half
// replays records in sequence order up to a frozen snapshot — appends
// racing the re-fit land past upTo and wait for the next one.
func CombinedSource(base pipeline.StreamSource, dir string, upTo uint64) pipeline.StreamSource {
	return func() (io.ReadCloser, error) {
		var readers []io.Reader
		var closers []io.Closer
		if base != nil {
			r, err := base()
			if err != nil {
				return nil, err
			}
			readers = append(readers, r)
			closers = append(closers, r)
		}
		pr, pw := io.Pipe()
		go func() {
			err := Replay(dir, upTo, func(seq uint64, doc json.RawMessage) error {
				if _, werr := pw.Write(doc); werr != nil {
					return werr
				}
				_, werr := pw.Write([]byte("\n"))
				return werr
			})
			pw.CloseWithError(err)
		}()
		// The separating newline guards against a base stream whose last
		// line has no terminator; the lenient decoder skips blank lines,
		// so a doubled newline costs nothing.
		readers = append(readers, io.MultiReader(strings.NewReader("\n"), pr))
		closers = append(closers, pr)
		return &multiReadCloser{r: io.MultiReader(readers...), closers: closers}, nil
	}
}

// multiReadCloser closes every constituent when the concatenated
// stream is closed — including the replay pipe, which unblocks and
// terminates its goroutine.
type multiReadCloser struct {
	r       io.Reader
	closers []io.Closer
}

func (m *multiReadCloser) Read(p []byte) (int, error) { return m.r.Read(p) }

func (m *multiReadCloser) Close() error {
	var first error
	for _, c := range m.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
