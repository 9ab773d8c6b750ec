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
	// Up echoes the availability vector the solve was run against:
	// the caller's vector for the free OptimizeDegraded (nil for nil),
	// and for Fleet.OptimizeDegraded the tally's, or nil when every
	// station is up.
	Up []bool
	// Survivors is the number of servers up.
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
// on every call, and it counts up's survivors per class in the same
// pass that copies up into the echo; serve.Server keeps one Fleet and
// one Tally for all its re-solves.
func OptimizeDegraded(g *model.Group, lambda float64, up []bool, opts Options) (*DegradedResult, error) {
	f, err := NewFleet(g)
	if err != nil {
		return nil, err
	}
	var t *Tally
	if up != nil {
		if t, err = f.NewTally(up); err != nil {
			return nil, err
		}
	}
	res, err := f.OptimizeDegraded(lambda, t, opts)
	if err != nil {
		return nil, err
	}
	if t != nil {
		res.Up = t.up // the caller's vector, echoed as given
	}
	return res, nil
}

// OptimizeDegraded re-solves over the stations t marks up (every
// station for t == nil); see the free OptimizeDegraded. It reads t's
// per-class counts, so nothing is recounted, re-validated or
// re-clustered, and the result is written straight into full-length
// vectors. Up is t's own vector, not a copy, or nil when every station
// is up; t must not change while the result is in use.
func (f *Fleet) OptimizeDegraded(lambda float64, t *Tally, opts Options) (*DegradedResult, error) {
	if math.IsNaN(lambda) || lambda <= 0 {
		return nil, fmt.Errorf("core: total generic rate λ′=%g must be positive", lambda)
	}
	counts, up, survivors := f.survivors(t)
	if survivors == 0 {
		return nil, fmt.Errorf("core: no surviving servers")
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

	res, err := f.solve(admitted, up, counts, opts)
	if err != nil {
		return nil, err
	}
	return &DegradedResult{
		Result:    *res,
		Up:        up,
		Survivors: survivors,
		Admitted:  admitted,
		Shed:      shed,
	}, nil
}
