package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/stats"
)

// ErrDegenerateModel marks a Result whose shape cannot support fold-in
// inference — zero topics, missing components, or φ rows that disagree
// with the declared vocabulary. Match it with errors.Is. It replaces
// the index panic a degenerate model used to trigger.
var ErrDegenerateModel = errors.New("core: degenerate model")

// KernelOptions is an empty placeholder kept only so the benchmark
// module's FoldInOptsCtx call keeps compiling; the default float64
// kernel is the only fold-in path.
type KernelOptions struct{}

// FoldInKernel is the per-model working set of fold-in inference,
// precomputed once per Result: the per-topic concentration Gaussians
// in struct-of-arrays banks (Cholesky log-determinants baked in) and
// the φ matrix transposed to vocab-major columns so the z kernel's
// inner topic loop reads one contiguous K-length row per token. Chains
// drawn through the kernel are bit-identical to the original
// per-call derivation: the Gaussians are built by the same
// constructor, the φ columns are exact copies, the log-count table
// caches the exact values math.Log would return, and the pooled RNGs
// are reseeded to the same (seed, stream) pair a fresh RNG would use.
//
// A kernel is immutable after construction and safe for concurrent
// use; per-request scratch lives in an internal sync.Pool, so
// steady-state fold-ins allocate nothing beyond the caller's θ slice.
type FoldInKernel struct {
	res *Result // hook + identity; model parameters are copied below

	k, v           int
	gelDim, emuDim int
	alpha          float64
	useEmu         bool
	emuWeight      float64

	phiW [][]float64 // vocab-major φ columns: phiW[w][k] == Phi[k][w]

	gelBank *stats.GaussianBank
	emuBank *stats.GaussianBank

	pool sync.Pool // *foldScratch
}

// foldScratch is one in-flight fold-in's working memory.
type foldScratch struct {
	rng     *stats.RNG
	z       []int
	ndk     []int
	conc    []float64
	weights []float64
	logw    []float64
	catW    []float64
	gelDiff []float64
	emuDiff []float64

	// logTab[c] caches math.Log(float64(c)+α) for c ∈ [0, len(words)]:
	// the y kernel looks topic counts up instead of recomputing the
	// logarithm K times per sweep. Values are bit-identical by
	// construction (the cached expression is the original one).
	logTab []float64

	// yCache memoizes the y draw's exponentiated weight vector per
	// topic-count state. The y weights are a pure function of the ndk
	// vector within one request (conc and the log table are fixed), and
	// a short document revisits very few count states across its
	// sweeps, so most draws skip the K exponentials entirely. Hits are
	// bit-identical: the cached exps came from the same max-scan +
	// exp sequence an uncached draw would run, and the inverse-CDF draw
	// still consumes exactly one uniform. Slots are invalidated at
	// request start (conc changes per recipe).
	yCache [yCacheSlots]yCacheEntry
}

// yCacheSlots is the direct-mapped y-state cache size. Must be a power
// of two; 16 covers the one-hot states of typical short requests with
// few collisions.
const yCacheSlots = 16

type yCacheEntry struct {
	valid bool
	key   []int     // ndk state, length K
	w     []float64 // exp(logw − max) for that state, length K
}

// BuildKernel validates the model shape and returns its fold-in
// kernel, constructing it on first call and reusing it afterwards
// (SwapOutput installs a fresh Result, which starts with no kernel).
// The shape check runs on every call, not only the first: it reads
// O(K) lengths, and a Result whose φ or components were cut after the
// kernel was cached must still be refused. Shape defects are reported
// as errors matching ErrDegenerateModel instead of the panic the
// unchecked index used to raise.
func (r *Result) BuildKernel() (*FoldInKernel, error) {
	if err := r.checkShape(); err != nil {
		return nil, err
	}
	if kn := r.kernel.Load(); kn != nil {
		return kn, nil
	}
	kn, err := newFoldInKernel(r)
	if err != nil {
		return nil, err
	}
	// Two racing builders produce interchangeable kernels; keep the first.
	r.kernel.CompareAndSwap(nil, kn)
	return r.kernel.Load(), nil
}

// checkShape reports, as ErrDegenerateModel, any length that disagrees
// with K and V: the component counts, the φ rows, and the per-topic
// component dimensions against topic 0's.
func (r *Result) checkShape() error {
	if r.K < 1 {
		return fmt.Errorf("%w: K=%d", ErrDegenerateModel, r.K)
	}
	if r.V < 0 {
		return fmt.Errorf("%w: V=%d", ErrDegenerateModel, r.V)
	}
	if len(r.Gel) != r.K || len(r.Emu) != r.K {
		return fmt.Errorf("%w: %d gel / %d emulsion components for K=%d",
			ErrDegenerateModel, len(r.Gel), len(r.Emu), r.K)
	}
	if len(r.Phi) != r.K {
		return fmt.Errorf("%w: %d φ rows for K=%d", ErrDegenerateModel, len(r.Phi), r.K)
	}
	gelDim, emuDim := len(r.Gel[0].Mean), len(r.Emu[0].Mean)
	for k, row := range r.Phi {
		if len(row) != r.V {
			return fmt.Errorf("%w: φ row %d has %d terms, vocabulary %d",
				ErrDegenerateModel, k, len(row), r.V)
		}
		if len(r.Gel[k].Mean) != gelDim || len(r.Emu[k].Mean) != emuDim {
			return fmt.Errorf("%w: topic %d component dims %d/%d, topic 0 has %d/%d",
				ErrDegenerateModel, k, len(r.Gel[k].Mean), len(r.Emu[k].Mean), gelDim, emuDim)
		}
	}
	return nil
}

func newFoldInKernel(r *Result) (*FoldInKernel, error) {
	kn := &FoldInKernel{
		res:       r,
		k:         r.K,
		v:         r.V,
		gelDim:    len(r.Gel[0].Mean),
		emuDim:    len(r.Emu[0].Mean),
		alpha:     r.Alpha,
		useEmu:    r.UseEmulsion,
		emuWeight: r.EmulsionWeight,
	}
	gelG := make([]*stats.Gaussian, r.K)
	emuG := make([]*stats.Gaussian, r.K)
	for k := 0; k < r.K; k++ {
		g, err := r.GelGaussian(k)
		if err != nil {
			return nil, fmt.Errorf("core: topic %d gel: %w", k, err)
		}
		gelG[k] = g
		e, err := r.EmuGaussian(k)
		if err != nil {
			return nil, fmt.Errorf("core: topic %d emulsion: %w", k, err)
		}
		emuG[k] = e
	}
	kn.gelBank = stats.NewGaussianBank(r.K, kn.gelDim)
	kn.emuBank = stats.NewGaussianBank(r.K, kn.emuDim)
	if err := kn.gelBank.SetFromGaussians(gelG); err != nil {
		return nil, fmt.Errorf("core: gel bank: %w", err)
	}
	if err := kn.emuBank.SetFromGaussians(emuG); err != nil {
		return nil, fmt.Errorf("core: emulsion bank: %w", err)
	}
	flat := make([]float64, r.V*r.K)
	kn.phiW = make([][]float64, r.V)
	for w := 0; w < r.V; w++ {
		col := flat[w*r.K : (w+1)*r.K : (w+1)*r.K]
		for k := 0; k < r.K; k++ {
			col[k] = r.Phi[k][w]
		}
		kn.phiW[w] = col
	}
	kn.pool.New = func() any {
		sc := &foldScratch{
			rng:     stats.NewRNG(0, 0), // reseeded per request
			ndk:     make([]int, kn.k),
			conc:    make([]float64, kn.k),
			weights: make([]float64, kn.k),
			logw:    make([]float64, kn.k),
			catW:    make([]float64, kn.k),
			gelDiff: make([]float64, kn.gelDim),
			emuDiff: make([]float64, kn.emuDim),
		}
		for i := range sc.yCache {
			sc.yCache[i].key = make([]int, kn.k)
			sc.yCache[i].w = make([]float64, kn.k)
		}
		return sc
	}
	return kn, nil
}

// K returns the model's topic count (the length FoldInTo expects of
// its destination θ slice).
func (kn *FoldInKernel) K() int { return kn.k }

// FoldInTo runs fold-in inference for one recipe, writing the averaged
// θ of the chain's second half into theta (length K). It is FoldInCtx
// with the allocation moved to the caller: steady-state calls touch
// only pooled scratch. Chains are bit-identical to FoldInCtx for the
// same inputs.
func (kn *FoldInKernel) FoldInTo(ctx context.Context, theta []float64, words []int, gel, emu []float64, iters int, seed uint64) error {
	if iters <= 0 {
		return fmt.Errorf("core: fold-in needs positive iterations")
	}
	if len(theta) != kn.k {
		return fmt.Errorf("core: fold-in θ destination has length %d, model has K=%d", len(theta), kn.k)
	}
	if len(gel) != kn.gelDim || len(emu) != kn.emuDim {
		return fmt.Errorf("core: fold-in feature dims %d/%d, model %d/%d",
			len(gel), len(emu), kn.gelDim, kn.emuDim)
	}
	for _, w := range words {
		if w < 0 || w >= kn.v {
			return fmt.Errorf("core: fold-in word %d outside [0,%d)", w, kn.v)
		}
	}

	sc := kn.pool.Get().(*foldScratch)
	defer kn.pool.Put(sc)

	// Concentration log-likelihood per topic is constant across sweeps.
	conc := sc.conc
	kn.gelBank.LogPdfInto(conc, gel, sc.gelDiff)
	if kn.useEmu {
		kn.emuBank.AddLogPdf(conc, emu, kn.emuWeight, sc.emuDiff)
	}

	// The y kernel's log(N_dk+α) terms range over counts 0…len(words);
	// cache every possible value once per request instead of taking K
	// logarithms per sweep. The cached expression is exactly the inline
	// one, so lookups are bit-identical.
	if cap(sc.logTab) < len(words)+1 {
		sc.logTab = make([]float64, len(words)+1)
	}
	logTab := sc.logTab[:len(words)+1]
	for c := range logTab {
		logTab[c] = math.Log(float64(c) + kn.alpha)
	}

	rng := sc.rng
	rng.Reseed(seed, 0xF01D)
	if cap(sc.z) < len(words) {
		sc.z = make([]int, len(words))
	}
	z := sc.z[:len(words)]
	ndk := sc.ndk
	for k := range ndk {
		ndk[k] = 0
	}
	for n := range z {
		z[n] = rng.IntN(kn.k)
		ndk[z[n]]++
	}
	y := rng.CategoricalLogScratch(conc, sc.catW)

	start := time.Now()
	for k := range theta {
		theta[k] = 0
	}
	kept, err := kn.sweep(ctx, theta, words, z, ndk, conc, logTab, y, iters, sc, start)
	if err != nil {
		return err
	}
	for k := range theta {
		theta[k] /= float64(kept)
	}
	if hook := kn.res.FoldInHook; hook != nil {
		hook(FoldInStats{Sweeps: iters, Words: len(words), Total: time.Since(start)})
	}
	return nil
}

// sweep is the seed-equivalent Gibbs loop: inverse-CDF categorical
// draws over float64 scores. Every weight, draw and θ contribution is
// bit-identical to the original implementation — the loop only hoists
// the per-topic branch on y into a single fixup, looks the y kernel's
// logarithms up from the per-request table, and uses the fused draw
// variants (all individually bit-exact transformations). It returns
// the number of sweeps averaged into θ.
func (kn *FoldInKernel) sweep(ctx context.Context, theta []float64, words []int, z, ndk []int, conc, logTab []float64, y, iters int, sc *foldScratch, start time.Time) (int, error) {
	kk := kn.k
	alpha := kn.alpha
	weights := sc.weights[:kk]
	logw := sc.logw[:kk]
	ndk = ndk[:kk]
	conc = conc[:kk]
	kept := 0
	half := iters / 2
	denom := float64(len(words)) + 1 + alpha*float64(kk)
	rng := sc.rng
	for i := range sc.yCache {
		sc.yCache[i].valid = false
	}
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			if hook := kn.res.FoldInHook; hook != nil {
				hook(FoldInStats{Sweeps: it, Words: len(words), Total: time.Since(start), Canceled: true})
			}
			return 0, &CanceledError{Sweeps: it, Cause: err}
		}
		for n, w := range words {
			ndk[z[n]]--
			row := kn.phiW[w][:kk]
			for k := 0; k < kk; k++ {
				weights[k] = (float64(ndk[k]) + alpha) * row[k]
			}
			// The y-coupled topic carries the +1 recipe-topic pull;
			// fixing it up once replaces a branch per topic. For k≠y
			// the original addend was an exact +0.
			weights[y] = (float64(ndk[y]) + 1 + alpha) * row[y]
			zn := rng.CategoricalFast(weights)
			z[n] = zn
			ndk[zn]++
		}
		// y draw, memoized per ndk state: an inverse-CDF draw over the
		// cached exp weights is bit-identical to recomputing them (and
		// consumes the same single uniform).
		h := uint(0)
		for k := 0; k < kk; k++ {
			h = h*131 + uint(ndk[k])
		}
		e := &sc.yCache[h&(yCacheSlots-1)]
		if e.valid && intsEqual(e.key, ndk) {
			y = rng.CategoricalFast(e.w)
		} else {
			for k := 0; k < kk; k++ {
				logw[k] = logTab[ndk[k]] + conc[k]
			}
			y = rng.CategoricalLogFused(logw, e.w)
			copy(e.key, ndk)
			e.valid = true
		}

		if it >= half {
			kept++
			for k := 0; k < kk; k++ {
				m := 0.0
				if y == k {
					m = 1
				}
				theta[k] += (float64(ndk[k]) + m + alpha) / denom
			}
		}
	}
	return kept, nil
}

// intsEqual reports element-wise equality of equal-length int slices.
func intsEqual(a, b []int) bool {
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}
