package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/annotate"
	"repro/internal/eval"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// modelInfo is what the checks need to know about a fitted model: its
// topic count, the majority topic of each ground-truth label among its
// fitted documents, and how well it recovers the labels.
type modelInfo struct {
	k         int
	majority  map[int]int
	placement float64 // share of fitted docs in their label's majority topic
	nmi       float64
}

func inspectModel(out *pipeline.Output) (modelInfo, error) {
	assign := out.Model.Assign()
	truth := make([]int, len(out.Docs))
	for i, d := range out.Docs {
		truth[i] = d.Truth
	}
	c, err := eval.NewContingency(assign, truth)
	if err != nil {
		return modelInfo{}, err
	}
	counts := map[[2]int]int{}
	for i := range assign {
		counts[[2]int{truth[i], assign[i]}]++
	}
	mi := modelInfo{k: out.Model.K, majority: map[int]int{}, nmi: c.NMI()}
	best := map[int]int{}
	for key, n := range counts {
		label, topic := key[0], key[1]
		if n > best[label] || (n == best[label] && topic < mi.majority[label]) {
			best[label], mi.majority[label] = n, topic
		}
	}
	placed := 0
	for i := range assign {
		if mi.majority[truth[i]] == assign[i] {
			placed++
		}
	}
	mi.placement = float64(placed) / float64(len(assign))
	return mi, nil
}

// checker validates every response of a run and tallies what the
// metrics need from them.
type checker struct {
	t        *traffic
	model    modelInfo
	problems []string
	failed   int64

	placed    map[int64]bool // first card per recipe key: in its label's majority topic?
	ingestSeq map[uint64]bool
	idBuf     []byte
	noted     bool // an unexpected status has been recorded as an example
}

func newChecker(t *traffic, m modelInfo) *checker {
	return &checker{t: t, model: m, placed: map[int64]bool{}, ingestSeq: map[uint64]bool{}}
}

// problem records a correctness failure; the first few are kept
// verbatim for the report.
func (c *checker) problem(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	} else if len(c.problems) == 20 {
		c.problems = append(c.problems, "(further problems omitted)")
	}
}

// check validates one response. A transport error or an unexpected
// status counts as failed; a 2xx body that does not decode into its
// wire type, echo the request, or place a valid topic is failed and
// also a correctness problem.
func (c *checker) check(s sample, body []byte) {
	o := c.t.op(s.op)
	want := http.StatusOK
	if o.kind == kindIngest {
		want = http.StatusAccepted
	}
	if s.status != want {
		// Failures are counted; the first is kept to say what they were.
		c.failed++
		if !c.noted {
			c.noted = true
			c.problem("op %d %s: status %d (0: transport error), want %d: %.200s", s.op, kindPath[o.kind], s.status, want, body)
		}
		return
	}
	if err := c.checkBody(o, body); err != nil {
		c.failed++
		c.problem("op %d %s: %v", s.op, kindPath[o.kind], err)
	}
}

func (c *checker) checkBody(o op, body []byte) error {
	switch o.kind {
	case kindAnnotate:
		var card annotate.WireCard
		if err := strictDecode(body, &card); err != nil {
			return err
		}
		return c.checkCard(o.keys[0], &card)
	case kindBatch:
		var resp serve.BatchResponse
		if err := strictDecode(body, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(o.keys) || resp.Served != len(o.keys) || resp.Failed != 0 {
			return fmt.Errorf("batch of %d: %d results, %d served, %d failed",
				len(o.keys), len(resp.Results), resp.Served, resp.Failed)
		}
		for j, it := range resp.Results {
			if it.Index != j || it.Card == nil {
				return fmt.Errorf("batch item %d: index %d, card %v, error %q", j, it.Index, it.Card != nil, it.Error)
			}
			if err := c.checkCard(o.keys[j], it.Card); err != nil {
				return fmt.Errorf("batch item %d: %w", j, err)
			}
		}
		return nil
	default:
		var ack serve.IngestAck
		if err := strictDecode(body, &ack); err != nil {
			return err
		}
		if ack.Duplicate || ack.Seq == 0 || c.ingestSeq[ack.Seq] {
			return fmt.Errorf("ack %+v: want a fresh record with an unused sequence number", ack)
		}
		c.ingestSeq[ack.Seq] = true
		return nil
	}
}

func (c *checker) checkCard(key int64, card *annotate.WireCard) error {
	c.idBuf = appendID(c.idBuf[:0], key)
	if card.RecipeID != string(c.idBuf) {
		return fmt.Errorf("recipe_id %q, want %q", card.RecipeID, c.idBuf)
	}
	if card.Topic < 0 || card.Topic >= c.model.k {
		return fmt.Errorf("topic %d outside [0,%d)", card.Topic, c.model.k)
	}
	if _, seen := c.placed[key]; !seen {
		c.placed[key] = c.model.majority[c.t.item(key).truth] == card.Topic
	}
	return nil
}

// placement is the share of distinct recipes whose card placed them in
// their ground-truth label's majority topic.
func (c *checker) placement() float64 {
	if len(c.placed) == 0 {
		return 0
	}
	n := 0
	for _, ok := range c.placed {
		if ok {
			n++
		}
	}
	return float64(n) / float64(len(c.placed))
}

func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding %T: %w", v, err)
	}
	return nil
}
