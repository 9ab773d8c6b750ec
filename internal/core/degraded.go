package core

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// DefaultAdmissionMargin is the stability headroom kept by admission
// control: shedding targets (1 − margin)·λ′_max of the survivors, since
// admitting the full saturation rate would drive T′ → ∞.
const DefaultAdmissionMargin = 1e-3

// DegradedResult is an optimal load distribution over the surviving
// subset of a partially failed group.
type DegradedResult struct {
	Result
	// Up echoes the availability vector the solve was run against.
	Up []bool
	// Survivors is the number of servers carrying load.
	Survivors int
	// Admitted is the generic rate actually distributed; Shed is the
	// rate admission control had to reject (λ′ − Admitted, ≥ 0). Shed
	// is zero whenever the survivors can absorb the full stream.
	Admitted, Shed float64
}

// OptimizeDegraded re-solves the paper's optimal distribution over the
// servers still up. It is the failover path of the system: on a
// failure or recovery event the dispatcher calls it with the fresh
// availability vector (and, for speed, the previous solve's Phi as
// Options.WarmPhi) and swaps in the returned rates.
//
// Unlike Optimize, a λ′ beyond the survivors' capacity is not an
// error: admission control computes the minimal shed rate that leaves
// the remaining load serviceable with DefaultAdmissionMargin headroom
// (tighter of that and Options.MaxUtilization, when set).
//
// With every server up and no shedding required, the result is
// identical to Optimize — the degraded path is a strict generalization,
// guarded by the Table 1/2 regression tests. Like Optimize it indexes g
// on every call; serve.Server keeps one Fleet for all its re-solves.
func OptimizeDegraded(g *model.Group, lambda float64, up []bool, opts Options) (*DegradedResult, error) {
	f, err := NewFleet(g)
	if err != nil {
		return nil, err
	}
	return f.OptimizeDegraded(lambda, up, opts)
}

// OptimizeDegraded re-solves over the stations up; see the free
// OptimizeDegraded. The availability vector becomes per-class survivor
// counts in one pass, so nothing is re-validated or re-clustered, and
// the result is written straight into full-length vectors.
func (f *Fleet) OptimizeDegraded(lambda float64, up []bool, opts Options) (*DegradedResult, error) {
	if up != nil && len(up) != f.N() {
		return nil, fmt.Errorf("core: availability vector has %d entries for %d servers", len(up), f.N())
	}
	if math.IsNaN(lambda) || lambda <= 0 {
		return nil, fmt.Errorf("core: total generic rate λ′=%g must be positive", lambda)
	}
	counts, survivors := f.survivorCounts(up)
	if survivors == 0 {
		return nil, fmt.Errorf("core: no surviving servers")
	}
	solveUp := up
	if survivors == f.N() {
		solveUp = nil // all up: the plain solve's path
	}

	// Admission control: cap λ′ below the survivors' (possibly
	// utilization-capped) saturation point instead of failing.
	ceiling := f.ceiling(counts, opts)
	if ceiling <= 0 {
		return nil, fmt.Errorf("core: surviving servers have no generic capacity")
	}
	admitted, shed := lambda, 0.0
	if lambda >= ceiling {
		admitted = ceiling
		shed = lambda - admitted
	}

	res, err := f.solve(admitted, solveUp, counts, opts)
	if err != nil {
		return nil, err
	}
	out := &DegradedResult{
		Result:    *res,
		Survivors: survivors,
		Admitted:  admitted,
		Shed:      shed,
	}
	if up != nil {
		out.Up = append([]bool(nil), up...)
	}
	return out, nil
}
