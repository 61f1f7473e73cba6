package pipeline

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/recipe"
	"repro/internal/stats"
)

// expMask selects a float64's exponent bits: all ones is NaN or ±Inf.
const expMask = 0x7ff << 52

// writeBundlePayload writes the schema-3 bundle payload: the fitted
// state as binary columns, which the container gzip-compresses. The
// payload is model-first. It opens with the model part, everything a
// server reads to serve, behind its byte length; the fit record (docs,
// θ and Y) follows. A server inflates the model part and stops; only a
// full load reads on.
//
// Unsigned integers and lengths are uvarints; signed integers (term
// IDs, Y, and Truth, which is −1 when unknown) are zigzag varints;
// floats are their raw little-endian IEEE-754 bits, so every value
// round-trips exactly; a string is its uvarint byte length, then its
// bytes. A length marked "n?" also encodes a nil slice: it is written
// as n+1, and 0 means nil, so nil and empty slices round-trip as such.
//
//	model length  the model part's byte length
//	model part
//	  counts      F, I: the number of floats and ints in the part's slices
//	  model       K, V, α, γ, use_emulsion (one byte, 0 or 1), emulsion_weight
//	  excluded    n, then n keys in increasing order, each followed by m?
//	              and m strings
//	  phi         K×V floats, row-major
//	  gel         per topic: dim, precision rows, precision cols, dim mean
//	              floats, rows×cols precision floats (row-major)
//	  emu         per topic, as gel
//	  topic docs  K uvarints: the recipes per topic under θ's arg-max
//	  loglik      n?, then n floats
//	fit part
//	  counts      F, I, as above
//	  docs        D?; D ID lengths, then the IDs' bytes back to back;
//	              D term counts?, then every term ID;
//	              D gel dims?, then every gel float;
//	              D emulsion dims?, then every emulsion float;
//	              D truths
//	  theta       R?, then R×K floats, row-major
//	  y           n?, then n ints
//
// Nothing follows y. For each part the decoder allocates one float
// arena of F and one int arena of I, after checking the part can hold
// them, and carves every slice out of them. A full load checks the
// topic docs against θ.
//
// A NaN or ±Inf anywhere is an error. Shapes are not checked here: a
// malformed model encodes, and the loader rejects it.
func writeBundlePayload(w *bufio.Writer, docs []recipe.Doc, excluded map[string][]string, m *core.Result) error {
	// The length goes first, so the model part is encoded aside.
	var part bytes.Buffer
	pw := bufio.NewWriter(&part)
	pe := &payloadEncoder{w: pw}
	pe.modelPart(excluded, m)
	if pe.err != nil {
		return pe.err
	}
	pw.Flush() // into a bytes.Buffer: cannot fail

	e := &payloadEncoder{w: w}
	e.uvarint(part.Len())
	w.Write(part.Bytes())
	e.fitPart(docs, m)
	return e.err
}

// modelPart writes the model part that writeBundlePayload describes.
func (e *payloadEncoder) modelPart(excluded map[string][]string, m *core.Result) {
	counts := m.DocsPerTopic()
	e.section = "counts"
	floats := len(m.LogLik)
	for _, row := range m.Phi {
		floats += len(row)
	}
	for _, cs := range [][]core.Component{m.Gel, m.Emu} {
		for _, c := range cs {
			floats += len(c.Mean)
			if c.Precision != nil {
				floats += len(c.Precision.Data)
			}
		}
	}
	e.uvarint(floats)
	e.uvarint(len(counts))

	e.section = "model"
	e.scalars(m)
	e.section = "excluded"
	e.excluded(excluded)
	e.section = "phi"
	for _, row := range m.Phi {
		e.floats(row)
	}
	e.section = "gel"
	e.components(m.Gel)
	e.section = "emu"
	e.components(m.Emu)
	e.section = "topic docs"
	for _, n := range counts {
		e.uvarint(n)
	}
	e.section = "loglik"
	optLen(e, m.LogLik)
	e.floats(m.LogLik)
}

// fitPart writes the fit record that writeBundlePayload describes.
func (e *payloadEncoder) fitPart(docs []recipe.Doc, m *core.Result) {
	e.section = "fit counts"
	floats, ints := 0, len(m.Y)
	for i := range docs {
		floats += len(docs[i].Gel) + len(docs[i].Emulsion)
		ints += len(docs[i].TermIDs)
	}
	for _, row := range m.Theta {
		floats += len(row)
	}
	e.uvarint(floats)
	e.uvarint(ints)

	e.section = "docs"
	e.docs(docs)
	e.section = "theta"
	optLen(e, m.Theta)
	for _, row := range m.Theta {
		e.floats(row)
	}
	e.section = "y"
	optLen(e, m.Y)
	e.ints(m.Y)
}

// payloadEncoder writes payload primitives. It keeps the first
// non-finite float as err and writes on; the caller discards the
// output.
type payloadEncoder struct {
	w       *bufio.Writer
	section string
	err     error
}

func (e *payloadEncoder) uvarint(n int) {
	e.w.Write(binary.AppendUvarint(e.w.AvailableBuffer(), uint64(n)))
}

func (e *payloadEncoder) varint(n int) {
	e.w.Write(binary.AppendVarint(e.w.AvailableBuffer(), int64(n)))
}

func (e *payloadEncoder) ints(ns []int) {
	for _, n := range ns {
		e.varint(n)
	}
}

func (e *payloadEncoder) float(f float64) {
	bits := math.Float64bits(f)
	if bits&expMask == expMask && e.err == nil {
		e.err = fmt.Errorf("pipeline: encoding bundle %s: unsupported value %v", e.section, f)
	}
	e.w.Write(binary.LittleEndian.AppendUint64(e.w.AvailableBuffer(), bits))
}

func (e *payloadEncoder) floats(fs []float64) {
	for _, f := range fs {
		e.float(f)
	}
}

func (e *payloadEncoder) bool(b bool) {
	if b {
		e.w.WriteByte(1)
	} else {
		e.w.WriteByte(0)
	}
}

func (e *payloadEncoder) str(s string) {
	e.uvarint(len(s))
	e.w.WriteString(s)
}

// components writes each component's dims, mean and precision. A nil
// precision is written as 0×0, which the decoder rejects.
func (e *payloadEncoder) components(cs []core.Component) {
	for _, c := range cs {
		p := c.Precision
		if p == nil {
			p = &stats.Mat{}
		}
		e.uvarint(len(c.Mean))
		e.uvarint(p.R)
		e.uvarint(p.C)
		e.floats(c.Mean)
		e.floats(p.Data)
	}
}

// scalars writes K, V and the hyperparameters.
func (e *payloadEncoder) scalars(m *core.Result) {
	e.uvarint(m.K)
	e.uvarint(m.V)
	e.float(m.Alpha)
	e.float(m.Gamma)
	e.bool(m.UseEmulsion)
	e.float(m.EmulsionWeight)
}

// docs writes the docs section, column by column.
func (e *payloadEncoder) docs(docs []recipe.Doc) {
	optLen(e, docs)
	for i := range docs {
		e.uvarint(len(docs[i].RecipeID))
	}
	for i := range docs {
		e.w.WriteString(docs[i].RecipeID)
	}
	for i := range docs {
		optLen(e, docs[i].TermIDs)
	}
	for i := range docs {
		e.ints(docs[i].TermIDs)
	}
	for i := range docs {
		optLen(e, docs[i].Gel)
	}
	for i := range docs {
		e.floats(docs[i].Gel)
	}
	for i := range docs {
		optLen(e, docs[i].Emulsion)
	}
	for i := range docs {
		e.floats(docs[i].Emulsion)
	}
	for i := range docs {
		e.varint(docs[i].Truth)
	}
}

// excluded writes the excluded-terms section, keys sorted so the same
// state always encodes to the same bytes.
func (e *payloadEncoder) excluded(excluded map[string][]string) {
	keys := make([]string, 0, len(excluded))
	for k := range excluded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.uvarint(len(keys))
	for _, k := range keys {
		e.str(k)
		optLen(e, excluded[k])
		for _, v := range excluded[k] {
			e.str(v)
		}
	}
}

// optLen writes an "n?" length: len(s)+1, or 0 for a nil slice.
func optLen[T any](e *payloadEncoder, s []T) {
	if s == nil {
		e.uvarint(0)
		return
	}
	e.uvarint(len(s) + 1)
}

// decodeBundlePayload decodes a decompressed schema-3 payload (laid
// out as writeBundlePayload describes) in full and makes the checks
// LoadModel makes, and one of its own: the stored topic docs must be
// θ's. Every error wraps ErrCorrupt. A length is checked against
// the bytes left before anything is allocated for it, so allocation
// stays proportional to the payload.
func decodeBundlePayload(raw []byte) (*Output, error) {
	n, w := binary.Uvarint(raw)
	if w <= 0 || n > uint64(len(raw)-w) {
		return nil, fmt.Errorf("pipeline: bundle payload model length overruns the %d-byte payload: %w", len(raw), ErrCorrupt)
	}
	m, excluded, counts, err := decodeModelPart(raw[w : w+int(n)])
	if err != nil {
		return nil, err
	}

	d := &payloadDecoder{buf: raw[w+int(n):], section: "fit counts"}
	d.arenas()
	d.section = "docs"
	docs := d.docs()
	d.section = "theta"
	m.Theta = d.optMatrix(m.K)
	d.section = "y"
	m.Y = d.optInts()
	if err := d.end(); err != nil {
		return nil, err
	}
	if !slices.Equal(counts, m.DocsPerTopic()) {
		return nil, fmt.Errorf("pipeline: bundle payload topic docs disagree with θ: %w", ErrCorrupt)
	}
	return finishBundle(docs, excluded, m)
}

// decodeModelPart decodes the model part of a schema-3 payload: the
// model without θ and Y, the exclusions, and the per-topic recipe
// counts. Every error wraps ErrCorrupt.
func decodeModelPart(part []byte) (*core.Result, map[string][]string, []int, error) {
	d := &payloadDecoder{buf: part, section: "counts"}
	d.arenas()
	d.section = "model"
	m := d.scalars()
	d.section = "excluded"
	excluded := d.excluded()
	d.section = "phi"
	m.Phi = d.matrix(m.K, m.V)
	d.section = "gel"
	m.Gel = d.components(m.K)
	d.section = "emu"
	m.Emu = d.components(m.K)
	d.section = "topic docs"
	counts := d.topicDocs(m.K)
	d.section = "loglik"
	m.LogLik = d.optFloats()
	if err := d.end(); err != nil {
		return nil, nil, nil, err
	}
	return m, excluded, counts, nil
}

// payloadDecoder reads payload primitives from buf. Errors are sticky:
// after the first, every read returns a zero value, so a section's
// reads can run to its end and be checked once.
type payloadDecoder struct {
	buf     []byte
	off     int
	section string
	err     error
	floats  []float64 // the float arena's unused tail
	ints    []int     // the int arena's unused tail
}

// arenas reads a counts preamble and allocates the float and int
// arenas it declares.
func (d *payloadDecoder) arenas() {
	nf := d.count(8)
	ni := d.count(1)
	if d.err != nil {
		return
	}
	d.floats = make([]float64, nf)
	d.ints = make([]int, ni)
}

// end checks that the part was read exactly: no byte after its last
// section and no counted float or int left unused.
func (d *payloadDecoder) end() error {
	d.section = "end"
	if d.err == nil && d.off != len(d.buf) {
		d.fail("%d bytes after the last section", len(d.buf)-d.off)
	}
	if d.err == nil && (len(d.floats) != 0 || len(d.ints) != 0) {
		d.fail("%d floats and %d ints counted but never used", len(d.floats), len(d.ints))
	}
	return d.err
}

// scalars reads K, V and the hyperparameters.
func (d *payloadDecoder) scalars() *core.Result {
	m := &core.Result{}
	m.K = d.count(1)
	m.V = d.count(1)
	m.Alpha = d.float()
	m.Gamma = d.float()
	m.UseEmulsion = d.bool()
	m.EmulsionWeight = d.float()
	if d.err == nil && m.K < 1 {
		d.fail("K=%d", m.K)
	}
	return m
}

func (d *payloadDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("pipeline: bundle payload %s: %s: %w", d.section, fmt.Sprintf(format, args...), ErrCorrupt)
	}
}

func (d *payloadDecoder) remaining() int { return len(d.buf) - d.off }

func (d *payloadDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *payloadDecoder) varint() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 || int64(int(v)) != v {
		d.fail("bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return int(v)
}

// count reads a length whose elements each take at least size of the
// bytes left, and rejects one those bytes cannot hold.
func (d *payloadDecoder) count(size int) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(d.remaining()/size) {
		d.fail("length %d overruns the %d bytes left", v, d.remaining())
		return 0
	}
	return int(v)
}

// optCount reads an "n?" length like count; -1 is the nil marker.
func (d *payloadDecoder) optCount(size int) int {
	v := d.uvarint()
	if d.err != nil || v == 0 {
		return -1
	}
	if v-1 > uint64(d.remaining()/size) {
		d.fail("length %d overruns the %d bytes left", v-1, d.remaining())
		return -1
	}
	return int(v - 1)
}

// optCounts fills lens with one "n?" length per element (-1 for nil)
// and returns their sum.
func (d *payloadDecoder) optCounts(lens []int, size int) int {
	total := 0
	for i := range lens {
		lens[i] = d.optCount(size)
		total += max(lens[i], 0)
	}
	return total
}

func (d *payloadDecoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated float")
		return 0
	}
	bits := binary.LittleEndian.Uint64(d.buf[d.off:])
	if bits&expMask == expMask {
		d.fail("non-finite float at byte %d", d.off)
		return 0
	}
	d.off += 8
	return math.Float64frombits(bits)
}

func (d *payloadDecoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.remaining() < 1 || d.buf[d.off] > 1 {
		d.fail("bad bool")
		return false
	}
	d.off++
	return d.buf[d.off-1] == 1
}

// bytes returns the next n bytes as a string.
func (d *payloadDecoder) bytes(n int) string {
	if d.err != nil {
		return ""
	}
	if n > d.remaining() {
		d.fail("%d string bytes overrun the %d bytes left", n, d.remaining())
		return ""
	}
	d.off += n
	return string(d.buf[d.off-n : d.off])
}

func (d *payloadDecoder) str() string { return d.bytes(d.count(1)) }

// floatSlice carves n floats from the arena and fills them.
func (d *payloadDecoder) floatSlice(n int) []float64 {
	if d.err != nil {
		return nil
	}
	if n > len(d.floats) || n > d.remaining()/8 {
		d.fail("%d floats overrun the counts or the payload", n)
		return nil
	}
	out := d.floats[:n:n]
	d.floats = d.floats[n:]
	src := d.buf[d.off : d.off+8*n]
	for i := range out {
		bits := binary.LittleEndian.Uint64(src[8*i : 8*i+8])
		if bits&expMask == expMask {
			d.fail("non-finite float at byte %d", d.off+8*i)
			return nil
		}
		out[i] = math.Float64frombits(bits)
	}
	d.off += 8 * n
	return out
}

// intSlice carves n ints from the arena and fills them.
func (d *payloadDecoder) intSlice(n int) []int {
	if d.err != nil {
		return nil
	}
	if n > len(d.ints) || n > d.remaining() {
		d.fail("%d ints overrun the counts or the payload", n)
		return nil
	}
	out := d.ints[:n:n]
	d.ints = d.ints[n:]
	for i := range out {
		out[i] = d.varint()
	}
	return out
}

// optFloats reads an "n?" float slice.
func (d *payloadDecoder) optFloats() []float64 {
	if n := d.optCount(8); n >= 0 {
		return d.floatSlice(n)
	}
	return nil
}

// optInts reads an "n?" int slice.
func (d *payloadDecoder) optInts() []int {
	if n := d.optCount(1); n >= 0 {
		return d.intSlice(n)
	}
	return nil
}

// optMatrix reads an "R?" row count, then R×cols floats as row slices.
func (d *payloadDecoder) optMatrix(cols int) [][]float64 {
	if rows := d.optCount(1); rows >= 0 {
		return d.matrix(rows, cols)
	}
	return nil
}

// topicDocs carves k per-topic recipe counts from the int arena.
func (d *payloadDecoder) topicDocs(k int) []int {
	if d.err != nil {
		return nil
	}
	if k > len(d.ints) {
		d.fail("%d counts overrun the counts", k)
		return nil
	}
	out := d.ints[:k:k]
	d.ints = d.ints[k:]
	for i := range out {
		v := d.uvarint()
		if v > math.MaxInt32 {
			d.fail("topic %d count %d implausible", i, v)
		}
		out[i] = int(v)
	}
	return out
}

// matrix reads rows×cols floats as row slices. rows has been checked
// against the bytes left by the count that read it.
func (d *payloadDecoder) matrix(rows, cols int) [][]float64 {
	if d.err != nil {
		return nil
	}
	if cols > 0 && rows > len(d.floats)/cols {
		d.fail("%d×%d floats overrun the counts", rows, cols)
		return nil
	}
	flat := d.floatSlice(rows * cols)
	if d.err != nil {
		return nil
	}
	out := make([][]float64, rows)
	for i := range out {
		out[i], flat = cut(flat, cols)
	}
	return out
}

// docs reads the docs section.
func (d *payloadDecoder) docs() []recipe.Doc {
	// Each doc takes at least five bytes: its ID length, three
	// dimension counts and its truth.
	n := d.optCount(5)
	if n < 0 {
		return nil
	}
	docs := make([]recipe.Doc, n)
	lens := make([]int, n)
	total := 0
	for i := range lens {
		lens[i] = d.count(1)
		total += lens[i]
	}
	ids := d.bytes(total)
	if d.err != nil {
		return nil
	}
	for i := range docs {
		docs[i].RecipeID, ids = ids[:lens[i]], ids[lens[i]:]
	}

	terms := d.intSlice(d.optCounts(lens, 1))
	if d.err != nil {
		return nil
	}
	for i := range docs {
		docs[i].TermIDs, terms = cut(terms, lens[i])
	}
	gel := d.floatSlice(d.optCounts(lens, 1))
	if d.err != nil {
		return nil
	}
	for i := range docs {
		docs[i].Gel, gel = cut(gel, lens[i])
	}
	emu := d.floatSlice(d.optCounts(lens, 1))
	if d.err != nil {
		return nil
	}
	for i := range docs {
		docs[i].Emulsion, emu = cut(emu, lens[i])
	}
	for i := range docs {
		docs[i].Truth = d.varint()
	}
	return docs
}

// excluded reads the excluded-terms section. Keys must be strictly
// increasing, as the encoder sorts them: a duplicate is corruption.
func (d *payloadDecoder) excluded() map[string][]string {
	// Each key takes at least its length and its value count.
	n := d.count(2)
	out := map[string][]string{}
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		key := d.str()
		if i > 0 && key <= prev {
			d.fail("key %q out of order", key)
		}
		prev = key
		var vals []string
		if m := d.optCount(1); m >= 0 {
			vals = make([]string, m)
			for j := range vals {
				vals[j] = d.str()
			}
		}
		out[key] = vals
	}
	return out
}

// components reads k components. The precision must be square, of the
// mean's dimension, and fit in the counts before it becomes a Mat.
func (d *payloadDecoder) components(k int) []core.Component {
	if d.err != nil {
		return nil
	}
	out := make([]core.Component, k)
	for i := range out {
		dim, rows, cols := d.count(8), d.count(8), d.count(1)
		switch {
		case d.err != nil:
			return nil
		case rows < 1 || rows != cols:
			d.fail("component %d precision is %d×%d, not square", i, rows, cols)
		case dim != rows:
			d.fail("component %d mean has dim %d, precision %d", i, dim, rows)
		case rows > len(d.floats)/cols:
			d.fail("component %d precision %d×%d overruns the counts", i, rows, cols)
		}
		mean := d.floatSlice(dim)
		prec := d.floatSlice(rows * cols)
		if d.err != nil {
			return nil
		}
		out[i] = core.Component{Mean: mean, Precision: &stats.Mat{R: rows, C: cols, Data: prec}}
	}
	return out
}

// cut splits the first n elements off s, capacity-capped so an append
// to one slice cannot overwrite the next; n of -1 (the nil marker)
// takes nothing and yields nil.
func cut[T any](s []T, n int) (head, rest []T) {
	if n < 0 {
		return nil, s
	}
	return s[:n:n], s[n:]
}
