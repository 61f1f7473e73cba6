package core

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// parallelSeedMix keys the per-recipe RNG streams of the parallel
// kernel off the chain seed, apart from the chain's own stream.
const parallelSeedMix = 0xE8AC7

// sweepParallel runs one exact Gibbs pass on cfg.Workers goroutines.
//
// φ is drawn once from its conditional, φ_k ~ Dir(γ + N_·k), with the
// chain's RNG. Given φ and the components, a recipe's z and y depend
// only on that recipe's own counts:
//
//	p(z_dn = k) ∝ (N_dk^{-dn} + M_dk + α) · φ_kw
//	p(y_d = k)  ∝ (N_dk + α) · N(g_d | μ_k, Λ_k) · N(e_d | m_k, L_k)^λ
//
// so recipes are sampled independently, each from an RNG reseeded from
// (seed, sweep, recipe). Workers take contiguous recipe ranges and keep
// their changes to the shared counts (N_kw, N_k, M_k) as integer
// deltas, summed after the barrier. Neither the draws nor the sums
// depend on how the recipes are split, so the chain is the same at
// every worker count above one. The components are then drawn as in
// the sequential kernel. A recipe's z and y are sampled together, so
// the whole recipe phase is reported as the z phase.
func (s *Sampler) sweepParallel(sweep int) (phaseTimes, error) {
	var pt phaseTimes
	s.ensureLogTab()
	if s.scr.phi == nil {
		s.scr.phi = make([][]float64, s.data.V)
		for w := range s.scr.phi {
			s.scr.phi[w] = make([]float64, s.cfg.K)
		}
	}
	ranges := ShardRanges(s.data.NumDocs(), s.cfg.Workers)
	for len(s.scr.par) < len(ranges) {
		s.scr.par = append(s.scr.par, newParWorker(s.data.V, s.cfg.K, s.gelDim, s.emuDim))
	}
	t := time.Now()
	s.drawPhi()
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(pw *parWorker, lo, hi int) {
			defer wg.Done()
			for d := lo; d < hi && !s.aborted(); d++ {
				s.sampleRecipe(d, sweep, pw)
			}
		}(&s.scr.par[i], r[0], r[1])
	}
	wg.Wait()
	for i := range ranges {
		pw := &s.scr.par[i]
		for w, row := range pw.dnwk {
			dst := s.nwk[w]
			for k, dv := range row {
				dst[k] += dv
				row[k] = 0
			}
		}
		for k := range pw.dnk {
			s.nk[k] += pw.dnk[k]
			s.mk[k] += pw.dmk[k]
			pw.dnk[k], pw.dmk[k] = 0, 0
		}
	}
	pt.z = time.Since(t)
	t = time.Now()
	err := s.resampleComponents()
	pt.components = time.Since(t)
	return pt, err
}

// drawPhi draws φ_k ~ Dir(γ + N_·k) for every topic, in topic order
// from the chain's RNG, into the vocab-major table s.scr.phi.
func (s *Sampler) drawPhi() {
	phi := s.scr.phi
	for k := 0; k < s.cfg.K; k++ {
		sum := 0.0
		for w, row := range phi {
			row[k] = s.rng.Gamma(s.cfg.Gamma+float64(s.nwk[w][k]), 1)
			sum += row[k]
		}
		for _, row := range phi {
			row[k] /= sum
		}
	}
}

// sampleRecipe resamples recipe d's token topics and then its
// concentration topic against the sweep's φ and the current
// components, recording the changes to the shared counts in pw.
func (s *Sampler) sampleRecipe(d, sweep int, pw *parWorker) {
	pw.rng.Reseed(s.cfg.Seed^parallelSeedMix, uint64(sweep)<<32|uint64(d))
	K := s.cfg.K
	weights := pw.weights[:K]
	ndk := s.ndk[d][:K]
	zd := s.Z[d]
	yd := s.Y[d]
	alpha := s.cfg.Alpha
	for n, word := range s.data.Words[d] {
		old := zd[n]
		ndk[old]--
		row := s.scr.phi[word][:K]
		for k := 0; k < K; k++ {
			weights[k] = (float64(ndk[k]) + alpha) * row[k]
		}
		weights[yd] = (float64(ndk[yd]) + 1 + alpha) * row[yd]
		k := pw.rng.CategoricalFast(weights)
		ndk[k]++
		if k != old {
			zd[n] = k
			pw.dnwk[word][old]--
			pw.dnwk[word][k]++
			pw.dnk[old]--
			pw.dnk[k]++
		}
	}
	emuBank := s.scr.emuBank
	if !s.cfg.UseEmulsion {
		emuBank = nil
	}
	logw := pw.logw[:K]
	stats.ScoreTopics(logw, s.scr.logTab, ndk, s.scr.gelBank, s.data.Gel[d], pw.gelDiff,
		emuBank, s.data.Emu[d], s.cfg.EmulsionWeight, pw.emuDiff)
	if k := pw.rng.CategoricalLogFused(logw, pw.catW); k != yd {
		s.Y[d] = k
		pw.dmk[yd]--
		pw.dmk[k]++
	}
}

// parWorker is one parallel worker's persistent working set: its
// deltas against the shared counts, its sampling buffers and a
// reseedable RNG.
type parWorker struct {
	dnwk [][]int // vocab × topics
	dnk  []int
	dmk  []int

	weights []float64
	logw    []float64
	catW    []float64
	gelDiff []float64
	emuDiff []float64

	rng *stats.RNG
}

func newParWorker(v, k, gelDim, emuDim int) parWorker {
	return parWorker{
		dnwk:    makeCountTable(v, k),
		dnk:     make([]int, k),
		dmk:     make([]int, k),
		weights: make([]float64, k),
		logw:    make([]float64, k),
		catW:    make([]float64, k),
		gelDiff: make([]float64, gelDim),
		emuDiff: make([]float64, emuDim),
		rng:     stats.NewRNG(0, 0), // reseeded for every recipe
	}
}

// ShardRanges splits n items into at most w contiguous [lo,hi) ranges.
// Zero items yield no shards (rather than a division by zero from the
// w = n clamp); a non-positive worker count is treated as one worker.
func ShardRanges(n, w int) [][2]int {
	if n <= 0 {
		return nil
	}
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	out := make([][2]int, 0, w)
	size := n / w
	rem := n % w
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + size
		if i < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}
