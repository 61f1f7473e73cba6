package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/stats"
)

// snapshotVersion guards the snapshot wire format. A reader refuses
// snapshots from a future format rather than guessing at their layout.
const snapshotVersion = 1

// ErrSnapshot marks a snapshot that cannot be restored into the given
// sampler configuration — wrong shape, wrong seed, wrong sampler mode,
// or a future format version. Callers distinguish it from I/O errors
// with errors.Is.
var ErrSnapshot = errors.New("snapshot incompatible")

// accumState is the wire form of one NWAccum's sufficient statistics.
// The floats round-trip exactly through JSON (Go emits the shortest
// representation that parses back to the same float64), which is what
// makes collapsed-mode resume byte-identical.
type accumState struct {
	N     float64     `json:"n"`
	Sum   []float64   `json:"sum"`
	Outer [][]float64 `json:"outer"`
}

// Snapshot is the complete state of a Sampler captured between sweeps:
// latent assignments, the current component draws (or collapsed
// sufficient statistics), the RNG stream position, the learned α, the
// log-likelihood trace, and the sweep index. A chain killed after the
// snapshot and restored via ResumeSampler continues exactly where the
// original would have — for a fixed seed and worker count the resumed
// run's Z, Y and log-likelihood trace are byte-identical to an
// uninterrupted one.
//
// Count statistics (ndk, nkw, nk, mk) are intentionally absent: they
// are integer functions of Z and Y and are rebuilt exactly on restore,
// which keeps snapshots smaller and makes a corrupted snapshot that
// disagrees with itself impossible.
type Snapshot struct {
	FormatVersion int `json:"format_version"`

	// Shape and schedule identity — restore refuses a mismatch.
	K          int    `json:"k"`
	V          int    `json:"v"`
	Docs       int    `json:"docs"`
	Seed       uint64 `json:"seed"`
	Kernel     string `json:"kernel"`
	Collapsed  bool   `json:"collapsed"`
	Iterations int    `json:"iterations"`
	// Workers is never written. Snapshots from before Kernel carry
	// their worker count here; one above 1 means the retired AD-LDA
	// kernel, whose chains no kernel continues.
	Workers int `json:"workers,omitempty"`

	Sweep  int       `json:"sweep"` // completed sweeps
	Alpha  float64   `json:"alpha"` // current α (LearnAlpha mutates it)
	Z      [][]int   `json:"z"`
	Y      []int     `json:"y"`
	RNG    []byte    `json:"rng"` // PCG stream position
	LogLik []float64 `json:"loglik"`

	// Explicit component draws (non-collapsed mode): the (μ,Λ) pairs in
	// effect for the next sweep's y phase.
	GelComp []jsonComponent `json:"gel_comp,omitempty"`
	EmuComp []jsonComponent `json:"emu_comp,omitempty"`

	// Sufficient-statistic accumulators (collapsed mode).
	GelAcc []accumState `json:"gel_acc,omitempty"`
	EmuAcc []accumState `json:"emu_acc,omitempty"`
}

// Snapshot deep-copies the sampler's full state. It must be called
// between sweeps (Run's checkpoint hook guarantees this); the returned
// value shares nothing with the sampler, so it can be serialized on
// another goroutine while the chain keeps running.
func (s *Sampler) Snapshot() *Snapshot {
	rngState, err := s.rng.MarshalState()
	if err != nil {
		// PCG marshaling cannot fail; a nil state would poison resume,
		// so fail loudly rather than checkpoint garbage.
		panic(fmt.Sprintf("core: snapshot RNG state: %v", err))
	}
	sn := &Snapshot{
		FormatVersion: snapshotVersion,
		K:             s.cfg.K,
		V:             s.data.V,
		Docs:          s.data.NumDocs(),
		Seed:          s.cfg.Seed,
		Kernel:        s.cfg.kernel(),
		Collapsed:     s.cfg.Collapsed,
		Iterations:    s.cfg.Iterations,
		Sweep:         s.sweep,
		Alpha:         s.cfg.Alpha,
		Y:             append([]int(nil), s.Y...),
		RNG:           rngState,
		LogLik:        append([]float64(nil), s.LogLik...),
	}
	sn.Z = make([][]int, len(s.Z))
	for d, zs := range s.Z {
		sn.Z[d] = append([]int(nil), zs...)
	}
	if s.cfg.Collapsed {
		sn.GelAcc = accumStates(s.gelAcc)
		sn.EmuAcc = accumStates(s.emuAcc)
	} else {
		sn.GelComp = componentStates(s.gelComp)
		sn.EmuComp = componentStates(s.emuComp)
	}
	return sn
}

func accumStates(accs []*stats.NWAccum) []accumState {
	out := make([]accumState, len(accs))
	for k, a := range accs {
		n, sum, outer := a.State()
		rows := make([][]float64, outer.R)
		for i := 0; i < outer.R; i++ {
			rows[i] = outer.Row(i)
		}
		out[k] = accumState{N: n, Sum: sum, Outer: rows}
	}
	return out
}

func componentStates(comps []component) []jsonComponent {
	out := make([]jsonComponent, len(comps))
	for k, c := range comps {
		mean := append([]float64(nil), c.gauss.Mean...)
		out[k] = toJSONComponent(Component{Mean: mean, Precision: c.gauss.Precision})
	}
	return out
}

// WriteJSON serializes the snapshot as one JSON document.
func (sn *Snapshot) WriteJSON(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(sn); err != nil {
		return fmt.Errorf("core: encoding snapshot: %w", err)
	}
	return nil
}

// ReadSnapshotJSON deserializes a snapshot written by WriteJSON,
// rejecting future format versions with ErrSnapshot.
func ReadSnapshotJSON(r io.Reader) (*Snapshot, error) {
	var sn Snapshot
	if err := json.NewDecoder(r).Decode(&sn); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if sn.FormatVersion != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot format %d, this build reads %d: %w",
			sn.FormatVersion, snapshotVersion, ErrSnapshot)
	}
	return &sn, nil
}

// The sweep kernels a snapshot can name. The parallel kernel's chain
// does not depend on its worker count, so a snapshot it wrote resumes
// at any count above one; the sequential kernel's chain is another.
const (
	kernelSequential = "sequential"
	kernelParallel   = "parallel"
)

func (c Config) kernel() string {
	if c.Workers > 1 {
		return kernelParallel
	}
	return kernelSequential
}

// CheckKernel refuses, with ErrSnapshot, a snapshot that cfg's kernel
// cannot continue: one another kernel wrote, or one written by the
// retired AD-LDA kernel, which recorded a worker count above one and
// no kernel.
func (sn *Snapshot) CheckKernel(cfg Config) error {
	kernel := sn.Kernel
	if kernel == "" {
		if sn.Workers > 1 {
			return fmt.Errorf("core: snapshot written by the retired AD-LDA kernel (%d workers): %w", sn.Workers, ErrSnapshot)
		}
		kernel = kernelSequential
	}
	if kernel != cfg.kernel() {
		return fmt.Errorf("core: snapshot of the %s kernel, config runs the %s kernel: %w", kernel, cfg.kernel(), ErrSnapshot)
	}
	return nil
}

// ResumeSampler rebuilds a Sampler from a Snapshot so that Run
// continues the chain at the next sweep. data and cfg must describe
// the same problem the snapshot was taken from — same document set,
// topic count, seed, sampler mode, and kernel — or the restore
// is refused with ErrSnapshot; determinism guarantees are meaningless
// across a silent mismatch. cfg.Iterations may differ (a resumed chain
// can be extended or shortened); cfg.Alpha is superseded by the
// snapshot's live value.
func ResumeSampler(data *Data, cfg Config, sn *Snapshot) (*Sampler, error) {
	cfg, gelDim, emuDim, err := prepareConfig(data, cfg)
	if err != nil {
		return nil, err
	}
	if sn.FormatVersion != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot format %d, want %d: %w", sn.FormatVersion, snapshotVersion, ErrSnapshot)
	}
	d := data.NumDocs()
	switch {
	case sn.K != cfg.K:
		return nil, fmt.Errorf("core: snapshot has K=%d, config K=%d: %w", sn.K, cfg.K, ErrSnapshot)
	case sn.V != data.V:
		return nil, fmt.Errorf("core: snapshot has V=%d, data V=%d: %w", sn.V, data.V, ErrSnapshot)
	case sn.Docs != d || len(sn.Z) != d || len(sn.Y) != d:
		return nil, fmt.Errorf("core: snapshot covers %d docs, data has %d: %w", sn.Docs, d, ErrSnapshot)
	case sn.Seed != cfg.Seed:
		return nil, fmt.Errorf("core: snapshot seed %d, config seed %d: %w", sn.Seed, cfg.Seed, ErrSnapshot)
	case sn.Collapsed != cfg.Collapsed:
		return nil, fmt.Errorf("core: snapshot collapsed=%v, config collapsed=%v: %w", sn.Collapsed, cfg.Collapsed, ErrSnapshot)
	case sn.Sweep < 0:
		return nil, fmt.Errorf("core: snapshot sweep %d negative: %w", sn.Sweep, ErrSnapshot)
	case sn.Alpha <= 0:
		return nil, fmt.Errorf("core: snapshot α=%g not positive: %w", sn.Alpha, ErrSnapshot)
	}
	if err := sn.CheckKernel(cfg); err != nil {
		return nil, err
	}
	cfg.Alpha = sn.Alpha

	s := &Sampler{
		cfg:    cfg,
		data:   data,
		rng:    stats.NewRNG(cfg.Seed, 0x70F1C),
		gelDim: gelDim,
		emuDim: emuDim,
		sweep:  sn.Sweep,
		LogLik: append([]float64(nil), sn.LogLik...),
	}
	if err := s.rng.UnmarshalState(sn.RNG); err != nil {
		return nil, fmt.Errorf("core: snapshot RNG state: %w: %v", ErrSnapshot, err)
	}

	// Latent assignments, then the counts rebuilt from them exactly.
	s.Z = make([][]int, d)
	s.Y = make([]int, d)
	s.ndk = make([][]int, d)
	s.nd = make([]int, d)
	s.nwk = makeCountTable(data.V, cfg.K)
	s.nk = make([]int, cfg.K)
	s.mk = make([]int, cfg.K)
	for i := 0; i < d; i++ {
		if len(sn.Z[i]) != len(data.Words[i]) {
			return nil, fmt.Errorf("core: snapshot doc %d has %d tokens, data has %d: %w",
				i, len(sn.Z[i]), len(data.Words[i]), ErrSnapshot)
		}
		y := sn.Y[i]
		if y < 0 || y >= cfg.K {
			return nil, fmt.Errorf("core: snapshot y[%d]=%d outside [0,%d): %w", i, y, cfg.K, ErrSnapshot)
		}
		s.Y[i] = y
		s.mk[y]++
		s.ndk[i] = make([]int, cfg.K)
		s.Z[i] = append([]int(nil), sn.Z[i]...)
		s.nd[i] = len(data.Words[i])
		for n, w := range data.Words[i] {
			k := s.Z[i][n]
			if k < 0 || k >= cfg.K {
				return nil, fmt.Errorf("core: snapshot z[%d][%d]=%d outside [0,%d): %w", i, n, k, cfg.K, ErrSnapshot)
			}
			s.ndk[i][k]++
			s.nwk[w][k]++
			s.nk[k]++
		}
	}
	s.initScratch()

	if cfg.Collapsed {
		if len(sn.GelAcc) != cfg.K || len(sn.EmuAcc) != cfg.K {
			return nil, fmt.Errorf("core: snapshot has %d/%d accumulators, want %d: %w",
				len(sn.GelAcc), len(sn.EmuAcc), cfg.K, ErrSnapshot)
		}
		s.gelAcc = make([]*stats.NWAccum, cfg.K)
		s.emuAcc = make([]*stats.NWAccum, cfg.K)
		for k := 0; k < cfg.K; k++ {
			ga, err := restoreAccum(cfg.GelPrior, sn.GelAcc[k])
			if err != nil {
				return nil, fmt.Errorf("core: gel accumulator %d: %w: %v", k, ErrSnapshot, err)
			}
			ea, err := restoreAccum(cfg.EmuPrior, sn.EmuAcc[k])
			if err != nil {
				return nil, fmt.Errorf("core: emulsion accumulator %d: %w: %v", k, ErrSnapshot, err)
			}
			s.gelAcc[k], s.emuAcc[k] = ga, ea
		}
		return s, nil
	}

	if len(sn.GelComp) != cfg.K || len(sn.EmuComp) != cfg.K {
		return nil, fmt.Errorf("core: snapshot has %d/%d components, want %d: %w",
			len(sn.GelComp), len(sn.EmuComp), cfg.K, ErrSnapshot)
	}
	s.gelComp = make([]component, cfg.K)
	s.emuComp = make([]component, cfg.K)
	for k := 0; k < cfg.K; k++ {
		gc, err := restoreComponent(sn.GelComp[k], gelDim)
		if err != nil {
			return nil, fmt.Errorf("core: gel component %d: %w: %v", k, ErrSnapshot, err)
		}
		ec, err := restoreComponent(sn.EmuComp[k], emuDim)
		if err != nil {
			return nil, fmt.Errorf("core: emulsion component %d: %w: %v", k, ErrSnapshot, err)
		}
		s.gelComp[k], s.emuComp[k] = gc, ec
	}
	// The scratch banks mirror the components; a resumed sampler must
	// score its first y phase against the restored parameters, not the
	// zero-valued bank initScratch left behind.
	if err := s.refreshBanks(); err != nil {
		return nil, fmt.Errorf("core: snapshot component banks: %w", err)
	}
	return s, nil
}

// restoreComponent rebuilds a component from its wire form without
// re-regularizing: the snapshotted precision is the exact matrix the
// running chain held, already positive definite.
func restoreComponent(jc jsonComponent, dim int) (component, error) {
	c, err := fromJSONComponent(jc)
	if err != nil {
		return component{}, err
	}
	if len(c.Mean) != dim {
		return component{}, fmt.Errorf("component dim %d, want %d", len(c.Mean), dim)
	}
	g, err := stats.NewGaussian(c.Mean, c.Precision)
	if err != nil {
		return component{}, err
	}
	return component{gauss: g}, nil
}

func restoreAccum(prior *stats.NormalWishart, st accumState) (*stats.NWAccum, error) {
	a := stats.NewNWAccum(prior)
	if len(st.Outer) == 0 || len(st.Outer[0]) != len(st.Outer) {
		return nil, fmt.Errorf("accumulator outer-product matrix not square")
	}
	if err := a.SetState(st.N, st.Sum, stats.MatFromRows(st.Outer)); err != nil {
		return nil, err
	}
	return a, nil
}

// ResumeFit restores a chain from a snapshot, runs it to cfg.Iterations,
// and returns the estimates — the resume counterpart of Fit.
func ResumeFit(data *Data, cfg Config, sn *Snapshot) (*Result, error) {
	s, err := ResumeSampler(data, cfg, sn)
	if err != nil {
		return nil, err
	}
	if err := s.Run(nil); err != nil {
		return nil, err
	}
	return s.Estimate(), nil
}
