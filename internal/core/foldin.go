package core

import (
	"context"
	"errors"
	"fmt"
)

// ErrCanceled marks a fold-in abandoned because its context ended.
// Match it with errors.Is; the concrete error also unwraps to the
// context error (context.Canceled or context.DeadlineExceeded), so
// callers can tell a vanished client from an expired deadline.
var ErrCanceled = errors.New("core: fold-in canceled")

// CanceledError reports how far a canceled fold-in got before it was
// abandoned.
type CanceledError struct {
	Sweeps int   // completed Gibbs sweeps
	Cause  error // the context error that stopped the chain
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("core: fold-in canceled after %d sweeps: %v", e.Sweeps, e.Cause)
}

func (e *CanceledError) Unwrap() error { return e.Cause }

func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// FoldIn infers the topic mixture θ of an unseen recipe under a fitted
// model, holding φ and the concentration components fixed — the
// operation behind the paper's motivating application: estimating what
// texture a posted recipe will have before cooking it.
//
// words may be empty (a recipe whose description carries no texture
// terms is placed by its concentrations alone). The sampler runs iters
// Gibbs sweeps over the recipe's latent z and y and returns the
// averaged θ of the second half of the chain.
func (r *Result) FoldIn(words []int, gel, emu []float64, iters int, seed uint64) ([]float64, error) {
	return r.FoldInCtx(context.Background(), words, gel, emu, iters, seed)
}

// FoldInCtx is FoldIn under a context: cancellation is checked
// between Gibbs sweeps, and an abandoned chain returns a
// *CanceledError matching ErrCanceled. This is what lets a serving
// layer stop paying for a request whose deadline already passed.
//
// Inference runs through the model's FoldInKernel (built lazily on
// first use), so the per-topic Gaussians and φ columns are derived
// once per model rather than once per call; the chains drawn are
// bit-identical either way. Callers that also want to avoid the θ
// allocation use the kernel's FoldInTo directly.
func (r *Result) FoldInCtx(ctx context.Context, words []int, gel, emu []float64, iters int, seed uint64) ([]float64, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("core: fold-in needs positive iterations")
	}
	kn, err := r.BuildKernel()
	if err != nil {
		return nil, err
	}
	theta := make([]float64, kn.k)
	if err := kn.FoldInTo(ctx, theta, words, gel, emu, iters, seed); err != nil {
		return nil, err
	}
	return theta, nil
}

// FoldInOptsCtx is FoldInCtx; the options value is ignored. It stays
// only because the benchmark module (bench/) calls it.
func (r *Result) FoldInOptsCtx(ctx context.Context, _ KernelOptions, words []int, gel, emu []float64, iters int, seed uint64) ([]float64, error) {
	return r.FoldInCtx(ctx, words, gel, emu, iters, seed)
}
