// Streaming corpus ingestion: the record-at-a-time front half of the
// pipeline, for corpora too large to hold as []*recipe.Recipe. The
// source is read twice — once to train the word2vec relatedness filter
// on a bounded reservoir of tokenized descriptions, once to filter and
// featurize — so peak memory is O(reservoir + kept documents), never
// O(corpus).
package pipeline

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/corpus"
	"repro/internal/lexicon"
	"repro/internal/recipe"
	"repro/internal/stats"
)

// StreamSource reopens the corpus stream. RunStream reads it twice
// (word2vec pass, ingestion pass), so the source must yield the same
// bytes on each call — a file, an object-store blob, a deterministic
// generator.
type StreamSource func() (io.ReadCloser, error)

// FileSource adapts a JSONL (or JSON-array) corpus file on disk.
func FileSource(path string) StreamSource {
	return func() (io.ReadCloser, error) { return os.Open(path) }
}

// GeneratedSource streams n synthetic recipes straight out of the
// corpus generator through a pipe — the million-recipe harness with no
// corpus file and no materialized corpus. GenerateTo is deterministic
// for a fixed config, so each reopen replays identical bytes, which is
// exactly the reopenable-stream contract RunStream needs.
func GeneratedSource(cfg corpus.Config, n int) StreamSource {
	return func() (io.ReadCloser, error) {
		pr, pw := io.Pipe()
		go func() { pw.CloseWithError(corpus.GenerateTo(cfg, pw, n)) }()
		return pr, nil
	}
}

// maxFilterSentences bounds the word2vec training reservoir: enough
// sentences that the relatedness filter's neighbourhoods stabilize,
// small enough that a million-recipe stream trains in bounded memory.
// Corpora below the bound train on every sentence, so streaming and
// in-memory runs agree exactly there.
const maxFilterSentences = 20000

// RunStream executes the pipeline on a streamed corpus. It differs
// from RunOnRecipes in what it retains: AllRecipes and Kept stay nil
// (the stream is never materialized), Docs carries the featurized kept
// documents, and Ingest reports every record the lenient decoder or
// amount resolution skipped. Records stream through resolution →
// dataset filters → feature construction one at a time; a malformed
// record skips, it does not abort the corpus.
func RunStream(src StreamSource, opts Options) (*Output, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("%w: RunStream needs a source", ErrOptions)
	}
	out := &Output{Dict: lexicon.Default(), ExcludedTerms: map[string][]string{}}

	if opts.UseW2VFilter {
		start := time.Now()
		if err := out.trainFilterStreaming(src, opts); err != nil {
			return nil, err
		}
		out.recordStage(opts.Metrics, "word2vec_filter", start)
	}

	ingestStart := time.Now()
	report, err := out.ingest(src, opts)
	if err != nil {
		return nil, err
	}
	out.Ingest = report
	if opts.Metrics != nil {
		opts.Metrics.Counter("ingest_records_total",
			"Corpus records decoded by streaming ingestion.", nil).Add(int64(report.Decoded))
		opts.Metrics.Counter("ingest_skipped_records_total",
			"Corpus records skipped by streaming ingestion (malformed, oversized, unresolvable).",
			nil).Add(int64(len(report.Skipped)))
	}
	out.recordStage(opts.Metrics, "dataset_filter", ingestStart)
	if err := out.fit(opts); err != nil {
		return nil, err
	}
	return out, nil
}

// trainFilterStreaming is the streaming word2vec pass: tokenize every
// description as it flows by, keep a fixed-size deterministic
// reservoir of sentences, then train on the reservoir. Seeded from the
// model seed so repeated runs exclude the same terms.
func (o *Output) trainFilterStreaming(src StreamSource, opts Options) error {
	tok := o.filterTokenizer()
	rng := stats.NewRNG(opts.Model.Seed, 0x5EED5A3F)
	sentences := make([][]string, 0, maxFilterSentences)
	observed := make(map[string]bool)
	seen := 0
	r, err := src()
	if err != nil {
		return fmt.Errorf("pipeline: opening corpus stream: %w", err)
	}
	defer r.Close()
	_, err = recipe.StreamJSONLenient(r, 0, func(rec *recipe.Recipe) error {
		o.observeDescription(tok, rec.Description, observed, func(sent []string) {
			seen++
			switch {
			case len(sentences) < maxFilterSentences:
				sentences = append(sentences, sent)
			default:
				// Classic reservoir sampling: the j-th sentence replaces a
				// random slot with probability cap/j, so every sentence is
				// retained equiprobably no matter how long the stream runs.
				if j := rng.IntN(seen); j < maxFilterSentences {
					sentences[j] = sent
				}
			}
		})
		return nil
	})
	if err != nil {
		return fmt.Errorf("pipeline: word2vec pass: %w", err)
	}
	return o.trainFilterFromSentences(sentences, observed, opts)
}

// ingest is the second pass: stream records through amount resolution,
// the dataset filters and feature construction, collecting the kept
// documents without retaining recipe text. Resolution failures are
// reported as skips alongside the decoder's own.
func (o *Output) ingest(src StreamSource, opts Options) (*recipe.DecodeReport, error) {
	cfg := o.filterConfig(opts)
	r, err := src()
	if err != nil {
		return nil, fmt.Errorf("pipeline: opening corpus stream: %w", err)
	}
	defer r.Close()
	var unresolved []recipe.SkippedRecord
	index := 0
	report, err := recipe.StreamJSONLenient(r, 0, func(rec *recipe.Recipe) error {
		i := index
		index++
		if rerr := rec.Resolve(); rerr != nil {
			unresolved = append(unresolved, recipe.SkippedRecord{
				Index: i, Reason: "unresolvable: " + rerr.Error(),
			})
			return nil
		}
		if cfg.Admit(rec, &o.FilterStats) {
			o.addDoc(rec)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: ingesting corpus: %w", err)
	}
	report.Decoded -= len(unresolved)
	report.Skipped = append(report.Skipped, unresolved...)
	return report, nil
}
