package core

import "time"

// SweepStats is the telemetry of one completed Gibbs sweep: where the
// wall time went (z phase, y phase, component resampling), how the
// chain is doing (joint log-likelihood), and how the topics are
// occupied (a chain collapsing onto two topics shows up here hundreds
// of sweeps before it shows in the final tables).
type SweepStats struct {
	Sweep int // 0-based sweep index

	Total      time.Duration // whole sweep including log-likelihood
	ZPhase     time.Duration // token-topic resampling (the parallel kernel's φ draw and whole recipe phase)
	YPhase     time.Duration // concentration-topic resampling (zero for the parallel kernel)
	Components time.Duration // Normal-Wishart component redraws (zero in collapsed mode)

	LogLik float64

	OccupiedTopics int     // topics holding at least one recipe (y occupancy)
	MaxTopicShare  float64 // largest fraction of recipes on one topic
}

// SweepHooks is the sampler's telemetry sink. The zero value disables
// everything; a non-nil OnSweep receives one SweepStats per completed
// sweep, synchronously on the sampling goroutine — keep it cheap
// (metric observations, occasional log lines), it is on the fit's
// critical path.
type SweepHooks struct {
	OnSweep func(SweepStats)
}

// Then composes hooks: both sinks see every sweep, h first. Either
// side may be the zero value.
func (h SweepHooks) Then(next SweepHooks) SweepHooks {
	if h.OnSweep == nil {
		return next
	}
	if next.OnSweep == nil {
		return h
	}
	first, second := h.OnSweep, next.OnSweep
	return SweepHooks{OnSweep: func(st SweepStats) {
		first(st)
		second(st)
	}}
}

// occupancy summarizes the y assignment from the mk counts.
func occupancy(mk []int, docs int) (occupied int, maxShare float64) {
	maxCount := 0
	for _, m := range mk {
		if m > 0 {
			occupied++
		}
		if m > maxCount {
			maxCount = m
		}
	}
	if docs > 0 {
		maxShare = float64(maxCount) / float64(docs)
	}
	return occupied, maxShare
}

// phaseTimes carries the per-phase wall-clock of one sweep between the
// kernels and Run's telemetry.
type phaseTimes struct {
	z, y, components time.Duration
}
