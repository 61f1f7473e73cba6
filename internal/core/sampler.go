package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// makeCountTable returns an r×c integer table whose rows slice one flat
// backing array, so walking consecutive rows touches contiguous memory.
func makeCountTable(r, c int) [][]int {
	flat := make([]int, r*c)
	rows := make([][]int, r)
	for i := range rows {
		rows[i] = flat[i*c : (i+1)*c : (i+1)*c]
	}
	return rows
}

// component is one topic's Gaussian over a concentration space, stored
// as mean and precision with a cached density object.
type component struct {
	gauss *stats.Gaussian
}

func newComponent(mean []float64, precision *stats.Mat) (component, error) {
	g, err := stats.NewGaussian(mean, stats.RegularizeSPD(precision, 1e-10))
	if err != nil {
		return component{}, err
	}
	return component{gauss: g}, nil
}

// setFrom refills the component in place from a freshly drawn mean and
// precision, reusing the Gaussian's storage after the first sweep. The
// regularization is the one newComponent applies (same jitter, same
// schedule, into caller scratch) and SetParams reruns NewGaussian's
// factorization, so the resulting density is bit-identical to a fresh
// component — the sweep just stops allocating one per topic.
func (c *component) setFrom(mean []float64, precision *stats.Mat, reg *stats.Mat, chol *stats.Cholesky) error {
	stats.RegularizeSPDInto(reg, precision, 1e-10, chol)
	if c.gauss == nil {
		g, err := stats.NewGaussian(mean, reg)
		if err != nil {
			return err
		}
		c.gauss = g
		return nil
	}
	return c.gauss.SetParams(mean, reg)
}

// Sampler is the Gibbs sampler state for the joint topic model.
type Sampler struct {
	cfg  Config
	data *Data
	rng  *stats.RNG

	gelDim, emuDim int

	// Latent assignments.
	Z [][]int // topic of each texture token
	Y []int   // concentration topic of each recipe

	// Count statistics. The topic-word table is stored vocab-major
	// (nwk[w][k]) so the z kernel's inner loop over topics reads one
	// contiguous K-length row per token instead of striding across K
	// separate V-length rows — the counts are integers, so the layout
	// is observationally exact.
	ndk [][]int // docs × topics: texture tokens of d in k
	nwk [][]int // vocab × topics: tokens of word w in k
	nk  []int   // topics: total tokens in k
	nd  []int   // docs: tokens in d (fixed)
	mk  []int   // topics: recipes with y_d = k

	// Explicit component parameters (non-collapsed mode).
	gelComp []component
	emuComp []component

	// Sufficient-statistic accumulators per topic (collapsed mode).
	gelAcc []*stats.NWAccum
	emuAcc []*stats.NWAccum

	// LogLik records the joint data log-likelihood after each sweep.
	LogLik []float64

	// sweep is the number of completed Gibbs sweeps; Run continues from
	// here, so a sampler restored from a Snapshot resumes mid-schedule.
	sweep int

	// abort carries an asynchronous stop request (Abort/AbortUnhealthy).
	// The sampling loops poll it between documents, so a hung-looking
	// chain can be stopped by a watchdog without losing the typed
	// diagnosis. Never serialized; a resumed sampler starts clear.
	abort atomic.Pointer[abortSignal]

	// scr holds every per-sweep buffer the hot loops would otherwise
	// allocate per document or per topic. It is pure scratch — never
	// serialized, rebuilt by NewSampler/ResumeSampler — so it cannot
	// perturb the determinism or snapshot contracts.
	scr samplerScratch
}

// samplerScratch is the sampler's reusable working memory.
type samplerScratch struct {
	weights []float64 // z kernel, length K
	logw    []float64 // y kernel, length K
	catW    []float64 // CategoricalLog exponentiation buffer, length K
	gelDiff []float64 // Gaussian.LogPdfScratch centering, gel space
	emuDiff []float64 // Gaussian.LogPdfScratch centering, emulsion space

	// Struct-of-arrays views of the current components, refreshed by
	// resampleComponents: the y kernel scores a recipe against all K
	// topics in one bank call over flat arrays instead of K pointer
	// chases. Bank scoring is bit-identical to per-component
	// LogPdfScratch calls.
	gelBank *stats.GaussianBank
	emuBank *stats.GaussianBank
	gs      []*stats.Gaussian // staging slice for bank refreshes

	// logTab[c] caches math.Log(float64(c)+α) for every possible
	// per-document topic count c ∈ [0, max nd]; the y kernels index it
	// instead of calling math.Log K times per document per sweep. The
	// cached expression is the inline one, so lookups are bit-identical.
	// Rebuilt whenever α moves (LearnAlpha).
	logTab      []float64
	logTabAlpha float64

	// Component-resampling buffers: per-topic member lists, the
	// feature-slice views handed to the Normal-Wishart posterior, the
	// fused posterior-draw scratch per concentration space, and the
	// regularization workspace for rebuilding component densities in
	// place.
	members  [][]int
	gxs, exs [][]float64
	gelDraw  *stats.NWDrawScratch
	emuDraw  *stats.NWDrawScratch
	gelReg   *stats.Mat
	emuReg   *stats.Mat
	gelChol  *stats.Cholesky
	emuChol  *stats.Cholesky

	// The parallel kernel's state, made on its first sweep: the
	// sweep's φ draw (vocab × topics) and one working set per worker.
	phi [][]float64
	par []parWorker
}

// initScratch sizes the scratch for the sampler's shape. The parallel
// kernel's state is made lazily by sweepParallel.
func (s *Sampler) initScratch() {
	k := s.cfg.K
	maxNd := 0
	for _, n := range s.nd {
		if n > maxNd {
			maxNd = n
		}
	}
	s.scr = samplerScratch{
		weights: make([]float64, k),
		logw:    make([]float64, k),
		catW:    make([]float64, k),
		gelDiff: make([]float64, s.gelDim),
		emuDiff: make([]float64, s.emuDim),
		gelBank: stats.NewGaussianBank(k, s.gelDim),
		emuBank: stats.NewGaussianBank(k, s.emuDim),
		gs:      make([]*stats.Gaussian, k),
		logTab:  make([]float64, maxNd+1),
		members: make([][]int, k),
		gelDraw: s.cfg.GelPrior.NewDrawScratch(),
		emuDraw: s.cfg.EmuPrior.NewDrawScratch(),
		gelReg:  stats.NewMat(s.gelDim, s.gelDim),
		emuReg:  stats.NewMat(s.emuDim, s.emuDim),
		gelChol: &stats.Cholesky{L: stats.NewMat(s.gelDim, s.gelDim)},
		emuChol: &stats.Cholesky{L: stats.NewMat(s.emuDim, s.emuDim)},
	}
	s.scr.logTabAlpha = math.NaN() // force the first ensureLogTab build
}

// ensureLogTab rebuilds the log-count table when α has moved (sampler
// construction, resume, or a LearnAlpha update between sweeps).
func (s *Sampler) ensureLogTab() {
	if s.scr.logTabAlpha == s.cfg.Alpha {
		return
	}
	for c := range s.scr.logTab {
		s.scr.logTab[c] = math.Log(float64(c) + s.cfg.Alpha)
	}
	s.scr.logTabAlpha = s.cfg.Alpha
}

// refreshBanks re-mirrors the explicit components into the scratch
// banks; must run after every resampleComponents.
func (s *Sampler) refreshBanks() error {
	for k := range s.gelComp {
		s.scr.gs[k] = s.gelComp[k].gauss
	}
	if err := s.scr.gelBank.SetFromGaussians(s.scr.gs); err != nil {
		return err
	}
	for k := range s.emuComp {
		s.scr.gs[k] = s.emuComp[k].gauss
	}
	return s.scr.emuBank.SetFromGaussians(s.scr.gs)
}

// prepareConfig validates cfg against data, fills in empirical priors
// when the config leaves them nil, and returns the normalized config
// with the feature dimensionalities.
func prepareConfig(data *Data, cfg Config) (Config, int, int, error) {
	gelDim, emuDim, err := data.Validate()
	if err != nil {
		return cfg, 0, 0, err
	}
	if cfg.K <= 1 {
		return cfg, 0, 0, fmt.Errorf("core: need K ≥ 2 topics, got %d", cfg.K)
	}
	if cfg.Alpha <= 0 || cfg.Gamma <= 0 {
		return cfg, 0, 0, fmt.Errorf("core: need positive α and γ")
	}
	if cfg.Iterations <= 0 {
		return cfg, 0, 0, fmt.Errorf("core: need positive iteration count")
	}
	if cfg.EmulsionWeight == 0 {
		cfg.EmulsionWeight = 1
	}
	if cfg.EmulsionWeight < 0 || cfg.EmulsionWeight > 1 {
		return cfg, 0, 0, fmt.Errorf("core: emulsion weight %g outside (0,1]", cfg.EmulsionWeight)
	}
	if cfg.Workers < 0 {
		return cfg, 0, 0, fmt.Errorf("core: negative worker count %d", cfg.Workers)
	}
	if cfg.Workers > 1 && cfg.Collapsed {
		return cfg, 0, 0, fmt.Errorf("core: the collapsed sampler is sequential; Workers > 1 is not supported with it")
	}
	if cfg.GelPrior == nil || cfg.EmuPrior == nil {
		gp, ep, err := EmpiricalPriors(data)
		if err != nil {
			return cfg, 0, 0, err
		}
		if cfg.GelPrior == nil {
			cfg.GelPrior = gp
		}
		if cfg.EmuPrior == nil {
			cfg.EmuPrior = ep
		}
	}
	if cfg.GelPrior.Dim() != gelDim {
		return cfg, 0, 0, fmt.Errorf("core: gel prior dim %d, data dim %d", cfg.GelPrior.Dim(), gelDim)
	}
	if cfg.EmuPrior.Dim() != emuDim {
		return cfg, 0, 0, fmt.Errorf("core: emulsion prior dim %d, data dim %d", cfg.EmuPrior.Dim(), emuDim)
	}
	return cfg, gelDim, emuDim, nil
}

// NewSampler validates inputs, fills in empirical priors when the
// config leaves them nil, and initializes assignments uniformly at
// random.
func NewSampler(data *Data, cfg Config) (*Sampler, error) {
	cfg, gelDim, emuDim, err := prepareConfig(data, cfg)
	if err != nil {
		return nil, err
	}

	s := &Sampler{
		cfg:    cfg,
		data:   data,
		rng:    stats.NewRNG(cfg.Seed, 0x70F1C),
		gelDim: gelDim,
		emuDim: emuDim,
	}
	d := data.NumDocs()
	s.Z = make([][]int, d)
	s.Y = make([]int, d)
	s.ndk = make([][]int, d)
	s.nd = make([]int, d)
	s.nwk = makeCountTable(data.V, cfg.K)
	s.nk = make([]int, cfg.K)
	s.mk = make([]int, cfg.K)
	var yInit []int
	if !cfg.RandomInit {
		yInit = initYKMeans(data.Gel, cfg.K, s.rng)
	}
	for i := 0; i < d; i++ {
		s.ndk[i] = make([]int, cfg.K)
		s.Z[i] = make([]int, len(data.Words[i]))
		s.nd[i] = len(data.Words[i])
		y := s.rng.IntN(cfg.K)
		if yInit != nil {
			y = yInit[i]
		}
		s.Y[i] = y
		s.mk[y]++
		for n, w := range data.Words[i] {
			// Tokens start in the recipe's concentration topic so the two
			// channels begin coupled; random token topics work too but mix
			// more slowly.
			k := y
			if cfg.RandomInit {
				k = s.rng.IntN(cfg.K)
			}
			s.Z[i][n] = k
			s.ndk[i][k]++
			s.nwk[w][k]++
			s.nk[k]++
		}
	}
	s.initScratch()
	if cfg.Collapsed {
		s.gelAcc = make([]*stats.NWAccum, cfg.K)
		s.emuAcc = make([]*stats.NWAccum, cfg.K)
		for k := 0; k < cfg.K; k++ {
			s.gelAcc[k] = stats.NewNWAccum(cfg.GelPrior)
			s.emuAcc[k] = stats.NewNWAccum(cfg.EmuPrior)
		}
		for i := 0; i < d; i++ {
			s.gelAcc[s.Y[i]].Add(data.Gel[i])
			s.emuAcc[s.Y[i]].Add(data.Emu[i])
		}
	} else {
		if err := s.resampleComponents(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Run performs Gibbs sweeps until cfg.Iterations have completed,
// starting from the sampler's current sweep index (0 for a fresh
// sampler, the checkpointed index for one restored via ResumeSampler).
// The onSweep callback (may be nil) receives the sweep index and
// running log-likelihood; richer telemetry (phase timings, occupancy)
// flows through cfg.Hooks. When cfg.CheckpointEvery and
// cfg.CheckpointFunc are both set, a Snapshot is emitted after every
// CheckpointEvery-th completed sweep.
//
// Every completed sweep is classified by cfg.Health (see HealthPolicy);
// a violation — or a degenerate Normal-Wishart posterior surfacing as
// stats.ErrNumericalHealth, whether returned or panicked — aborts the
// chain with a typed *HealthError wrapping ErrUnhealthy. The check runs
// before the checkpoint emission, so an unhealthy state is never
// persisted over a healthy one.
func (s *Sampler) Run(onSweep func(iter int, logLik float64)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// The numerical kernels panic with error values wrapping
			// stats.ErrNumericalHealth when the chain state is beyond
			// repair (non-PD posterior after maximal jitter). Convert
			// those — and only those — into a typed health diagnosis.
			e, ok := r.(error)
			if !ok || !errors.Is(e, stats.ErrNumericalHealth) {
				panic(r)
			}
			err = &HealthError{
				Event: HealthEvent{Kind: HealthDegenerateCovariance, Sweep: s.sweep, LogLik: math.NaN(), Detail: e.Error()},
				Cause: e,
			}
		}
		if err == nil {
			return
		}
		var he *HealthError
		if errors.As(err, &he) && s.cfg.Health.OnEvent != nil {
			s.cfg.Health.OnEvent(he.Event)
		}
	}()
	return s.run(onSweep)
}

// run is Run's loop body; Run wraps it with panic recovery and the
// once-per-error OnEvent notification.
func (s *Sampler) run(onSweep func(iter int, logLik float64)) error {
	hook := s.cfg.Hooks.OnSweep
	hp := s.cfg.Health
	// The running best log-likelihood seeds from the existing trace, so
	// a chain resumed from a checkpoint keeps the same collapse
	// reference an uninterrupted run would hold.
	best := math.Inf(-1)
	for _, v := range s.LogLik {
		if finite(v) && v > best {
			best = v
		}
	}
	for it := s.sweep; it < s.cfg.Iterations; it++ {
		if err := s.abortErr(); err != nil {
			return err
		}
		start := time.Now()
		var pt phaseTimes
		var err error
		if s.cfg.Workers > 1 && !s.cfg.Collapsed {
			pt, err = s.sweepParallel(it)
		} else {
			pt, err = s.sweepSequential()
		}
		if err != nil {
			if errors.Is(err, stats.ErrNumericalHealth) {
				return &HealthError{
					Event: HealthEvent{Kind: HealthDegenerateCovariance, Sweep: it, LogLik: math.NaN(), Detail: err.Error()},
					Cause: err,
				}
			}
			return fmt.Errorf("core: sweep %d: %w", it, err)
		}
		if err := s.abortErr(); err != nil {
			// An abort landed mid-sweep: the kernels bailed out between
			// documents, so this sweep is partial — report it, don't
			// record it.
			return err
		}
		if s.cfg.LearnAlpha && it >= s.cfg.BurnIn {
			s.updateAlpha()
		}
		ll := s.logLikelihood()
		if hp.Perturb != nil {
			ll = hp.Perturb(it, ll)
		}
		elapsed := time.Since(start)
		s.LogLik = append(s.LogLik, ll)
		s.sweep = it + 1
		occupied, maxShare := occupancy(s.mk, s.data.NumDocs())
		if hook != nil {
			hook(SweepStats{
				Sweep:          it,
				Total:          elapsed,
				ZPhase:         pt.z,
				YPhase:         pt.y,
				Components:     pt.components,
				LogLik:         ll,
				OccupiedTopics: occupied,
				MaxTopicShare:  maxShare,
			})
		}
		if onSweep != nil {
			onSweep(it, ll)
		}
		// Classify before checkpointing: a diverged sweep must never
		// overwrite the last healthy checkpoint.
		if ev := hp.classifySweep(it, ll, best, occupied, elapsed); ev != nil {
			return &HealthError{Event: *ev}
		}
		if finite(ll) && ll > best {
			best = ll
		}
		if s.cfg.CheckpointEvery > 0 && s.cfg.CheckpointFunc != nil && (it+1)%s.cfg.CheckpointEvery == 0 {
			if err := s.cfg.CheckpointFunc(s.Snapshot()); err != nil {
				return fmt.Errorf("core: checkpoint after sweep %d: %w", it, err)
			}
		}
	}
	return nil
}

// CompletedSweeps returns how many Gibbs sweeps the sampler has run.
func (s *Sampler) CompletedSweeps() int { return s.sweep }

// Sweep runs one full Gibbs pass: all z, all y, then the component
// parameters.
func (s *Sampler) Sweep() error {
	_, err := s.sweepSequential()
	return err
}

// sweepSequential is Sweep with per-phase wall-clock for telemetry.
// The per-document abort polls (one atomic load each) let a watchdog
// stop a slow sweep mid-pass; Run detects the pending abort and
// discards the partial sweep.
func (s *Sampler) sweepSequential() (phaseTimes, error) {
	var pt phaseTimes
	s.ensureLogTab()
	t := time.Now()
	for d := range s.data.Words {
		if s.aborted() {
			return pt, nil
		}
		s.sampleZ(d)
	}
	pt.z = time.Since(t)
	t = time.Now()
	if s.cfg.Collapsed {
		s.sampleYCollapsed()
		pt.y = time.Since(t)
		return pt, nil
	}
	for d := range s.data.Words {
		if s.aborted() {
			return pt, nil
		}
		s.sampleY(d)
	}
	pt.y = time.Since(t)
	t = time.Now()
	err := s.resampleComponents()
	pt.components = time.Since(t)
	return pt, err
}

// sampleZ resamples every token topic in document d with the kernel of
// equation (2):
//
//	p(z_dn = k) ∝ (N_dk^{-dn} + M_dk + α) · (N_kw^{-dn} + γ)/(N_k^{-dn} + γV)
//
// where M_dk is 1 when y_d = k — texture tokens feel the pull of the
// recipe's concentration topic through the shared θ_d.
func (s *Sampler) sampleZ(d int) {
	w := s.data.Words[d]
	K := s.cfg.K
	weights := s.scr.weights[:K]
	ndk := s.ndk[d][:K]
	nk := s.nk[:K]
	zd := s.Z[d]
	yd := s.Y[d]
	alpha := s.cfg.Alpha
	gamma := s.cfg.Gamma
	gv := gamma * float64(s.data.V)
	for n, word := range w {
		old := zd[n]
		row := s.nwk[word][:K]
		ndk[old]--
		row[old]--
		nk[old]--
		// Flat pass with the y-coupled +1 fixed up once after the loop:
		// for k≠y the original M_dk addend was an exact +0, and the
		// fixup recomputes y's weight in the original operation order,
		// so every weight is bit-identical to the branching form.
		for k := 0; k < K; k++ {
			weights[k] = (float64(ndk[k]) + alpha) *
				(float64(row[k]) + gamma) /
				(float64(nk[k]) + gv)
		}
		weights[yd] = (float64(ndk[yd]) + 1 + alpha) *
			(float64(row[yd]) + gamma) /
			(float64(nk[yd]) + gv)
		k := s.rng.CategoricalFast(weights)
		zd[n] = k
		ndk[k]++
		row[k]++
		nk[k]++
	}
}

// sampleY resamples the concentration topic of document d with the
// kernel of equation (3):
//
//	p(y_d = k) ∝ (N_dk + α) · N(g_d | μ_k, Λ_k) · N(e_d | m_k, L_k)
//
// (M_dk^{−d} vanishes because each recipe carries exactly one y; the
// denominator is constant in k). The emulsion factor follows the
// generative model of equation (1); UseEmulsion=false drops it.
func (s *Sampler) sampleY(d int) {
	old := s.Y[d]
	s.mk[old]--
	K := s.cfg.K
	logw := s.scr.logw[:K]
	ndk := s.ndk[d][:K]
	logTab := s.scr.logTab
	// One fused pass per topic in the multi-pass order — count prior
	// from the log table, then the gel bank, then the weighted emulsion
	// bank — each term bit-identical to its original.
	emuBank := s.scr.emuBank
	if !s.cfg.UseEmulsion {
		emuBank = nil
	}
	stats.ScoreTopics(logw, logTab, ndk, s.scr.gelBank, s.data.Gel[d], s.scr.gelDiff,
		emuBank, s.data.Emu[d], s.cfg.EmulsionWeight, s.scr.emuDiff)
	k := s.rng.CategoricalLogFused(logw, s.scr.catW)
	s.Y[d] = k
	s.mk[k]++
}

// sampleYCollapsed resamples all y with the component parameters
// integrated out: the likelihood of g_d under topic k is the
// Normal-Wishart posterior predictive (a Student-t) given the other
// recipes currently assigned to k, maintained incrementally through
// sufficient-statistic accumulators.
func (s *Sampler) sampleYCollapsed() {
	K := s.cfg.K
	logw := s.scr.logw[:K]
	logTab := s.scr.logTab
	for d := range s.data.Words {
		if s.aborted() {
			return
		}
		old := s.Y[d]
		s.mk[old]--
		s.gelAcc[old].Remove(s.data.Gel[d])
		s.emuAcc[old].Remove(s.data.Emu[d])

		ndk := s.ndk[d][:K]
		for k := 0; k < K; k++ {
			logw[k] = logTab[ndk[k]]
		}
		stats.AddPredictiveLogPdf(logw, s.gelAcc, s.data.Gel[d], 1)
		if s.cfg.UseEmulsion {
			stats.AddPredictiveLogPdf(logw, s.emuAcc, s.data.Emu[d], s.cfg.EmulsionWeight)
		}
		k := s.rng.CategoricalLogFused(logw, s.scr.catW)
		s.Y[d] = k
		s.mk[k]++
		s.gelAcc[k].Add(s.data.Gel[d])
		s.emuAcc[k].Add(s.data.Emu[d])
	}
}

func (s *Sampler) membersByTopic() [][]int {
	members := make([][]int, s.cfg.K)
	for d, y := range s.Y {
		members[y] = append(members[y], d)
	}
	return members
}

// resampleComponents draws (μ_k, Λ_k) and (m_k, L_k) from their
// Normal-Wishart posteriors given the recipes currently assigned to
// each topic — equation (4). Topics with no recipes draw from the
// prior. The member lists and feature views are rebuilt into sampler
// scratch in document order — the same summation order as a fresh
// build, so the posteriors (and therefore the chain) are bit-identical
// to the allocating implementation.
func (s *Sampler) resampleComponents() error {
	members := s.scr.members
	for k := range members {
		members[k] = members[k][:0]
	}
	for d, y := range s.Y {
		members[y] = append(members[y], d)
	}
	if s.gelComp == nil {
		s.gelComp = make([]component, s.cfg.K)
		s.emuComp = make([]component, s.cfg.K)
	}
	gxs, exs := s.scr.gxs, s.scr.exs
	for k := 0; k < s.cfg.K; k++ {
		gxs, exs = gxs[:0], exs[:0]
		for _, d := range members[k] {
			gxs = append(gxs, s.data.Gel[d])
			exs = append(exs, s.data.Emu[d])
		}
		s.cfg.GelPrior.PosteriorSampleInto(s.rng, gxs, s.scr.gelDraw)
		if err := s.gelComp[k].setFrom(s.scr.gelDraw.Mu, s.scr.gelDraw.Lambda, s.scr.gelReg, s.scr.gelChol); err != nil {
			return fmt.Errorf("gel component %d: %w", k, err)
		}
		s.cfg.EmuPrior.PosteriorSampleInto(s.rng, exs, s.scr.emuDraw)
		if err := s.emuComp[k].setFrom(s.scr.emuDraw.Mu, s.scr.emuDraw.Lambda, s.scr.emuReg, s.scr.emuChol); err != nil {
			return fmt.Errorf("emulsion component %d: %w", k, err)
		}
	}
	s.scr.gxs, s.scr.exs = gxs[:0], exs[:0]
	return s.refreshBanks()
}

// logLikelihood computes the joint data log-likelihood under the
// current state: texture tokens under the φ point estimate and
// concentration vectors under their assigned components (or the
// posterior-mean components in collapsed mode).
func (s *Sampler) logLikelihood() float64 {
	gv := s.cfg.Gamma * float64(s.data.V)
	ll := 0.0
	for d, words := range s.data.Words {
		for n, w := range words {
			k := s.Z[d][n]
			ll += math.Log((float64(s.nwk[w][k]) + s.cfg.Gamma) / (float64(s.nk[k]) + gv))
		}
	}
	if s.cfg.Collapsed {
		for k := 0; k < s.cfg.K; k++ {
			ll += s.gelAcc[k].LogMarginalLikelihood()
			if s.cfg.UseEmulsion {
				ll += s.emuAcc[k].LogMarginalLikelihood()
			}
		}
		return ll
	}
	// LogPdfScratch centers once into scratch instead of once per
	// matrix row; its result is bit-identical to LogPdf.
	for d := range s.data.Words {
		k := s.Y[d]
		ll += s.gelComp[k].gauss.LogPdfScratch(s.data.Gel[d], s.scr.gelDiff)
		if s.cfg.UseEmulsion {
			ll += s.emuComp[k].gauss.LogPdfScratch(s.data.Emu[d], s.scr.emuDiff)
		}
	}
	return ll
}
