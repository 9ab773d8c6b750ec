package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/numeric"
)

// phiSolution is the outcome of the outer search: the located
// multiplier, the rate vector and total at Phi, and the cached
// evaluations at both ends of the final bracket. RatesLo/FLo are the
// last evaluation at the lower end (F < λ′ there by construction) and
// RatesHi/FHi the last at the upper end (F ≥ λ′).
type phiSolution struct {
	Phi         float64
	F, FLo, FHi float64
	Rates       []float64
	RatesLo     []float64
	RatesHi     []float64
	// Segment reports that the search ended on a bracket of relative
	// width ε rather than on a converged residual, so the segment
	// repair between the cached ends applies.
	Segment bool
	// Evals counts F(φ) evaluations.
	Evals int
}

// searchPhi locates the multiplier φ at which F(φ) = λ′ and returns the
// allocation there. F is non-decreasing in φ because each λ′_i(φ) is.
//
// By default it runs a safeguarded Newton iteration (newtonPhi). With
// Options.PureBisection it runs the paper's Fig. 3 literally
// (bisectPhi), the oracle the Newton search is tested against. Unless
// Options.NoRescale is set, the segment repair and the conservation
// projection (conserve) finish the allocation.
func searchPhi(ev *sparseFleet, lambda, eps float64, opts Options) (phiSolution, error) {
	warm := opts.WarmPhi > 0 && !isInfNaN(opts.WarmPhi)
	var sol phiSolution
	var err error
	if opts.PureBisection {
		start := 1e-12
		if warm {
			start = opts.WarmPhi / 16
		}
		sol, err = bisectPhi(ev, lambda, start, eps, !opts.NoRescale)
	} else {
		if len(ev.entries) == 0 {
			// Every MC_i(0) is +Inf: λ′ is so small that 1/λ′ overflows,
			// and no φ loads any station.
			return sol, fmt.Errorf("no station has a finite marginal cost at λ′=%g", lambda)
		}
		start := ev.entries[0]
		if warm && opts.WarmPhi > start {
			start = opts.WarmPhi
		}
		sol, err = newtonPhi(ev, lambda, start, eps, eps*ev.maxRate, !opts.NoRescale)
	}
	if err != nil {
		return sol, err
	}
	if !opts.NoRescale {
		sol.conserve(ev, lambda)
	}
	if !(sol.F > 0) {
		return sol, fmt.Errorf("the search for φ ended on an allocation carrying %g of λ′=%g", sol.F, lambda)
	}
	return sol, nil
}

// bisectPhi is the outer loop of the paper's Fig. 3 ("Calculate T′"):
// grow φ by doubling from start until F(φ) ≥ λ′ (lines 1–10), then
// bisect the bracket [0, φ_hi] to relative width eps (lines 11–27).
func bisectPhi(ev *sparseFleet, lambda, start, eps float64, needEndpoints bool) (phiSolution, error) {
	sol := ev.newSolution()
	var lastF float64
	eval := func(phi float64) float64 {
		lastF, _ = ev.ratesAt(phi)
		sol.Evals++
		return lastF
	}
	phiHi, err := numeric.ExpandUpper(func(phi float64) bool { return eval(phi) >= lambda }, start, 0, 0)
	if err != nil {
		return sol, err
	}
	// ExpandUpper's last evaluation is at phiHi (the cap is unused), so
	// the scratch already holds the upper endpoint.
	sol.RatesHi = append(sol.RatesHi[:0], ev.scratch...)
	sol.FHi = lastF
	hasLo := false
	lb, ub := 0.0, phiHi
	for i := 0; ub-lb > eps*phiHi && i < numeric.MaxIterations; i++ {
		mid := lb + (ub-lb)/2
		if mid == lb || mid == ub { //bladelint:allow floateq -- bisection fixed point: the midpoint collided with a bound, no tighter float exists
			break
		}
		if eval(mid) >= lambda {
			ub = mid
			sol.RatesHi = append(sol.RatesHi[:0], ev.scratch...)
			sol.FHi = lastF
		} else {
			lb = mid
			sol.RatesLo = append(sol.RatesLo[:0], ev.scratch...)
			sol.FLo = lastF
			hasLo = true
		}
	}
	sol.settleSegment(ev, lb, ub, hasLo, needEndpoints)
	return sol, nil
}

// newtonPhi finds φ by Newton's method on F(φ) − λ′ with slope
// F′(φ) = Σ 1/MC′_i(λ′_i), which the inner solvers already compute at
// their roots. It keeps the bisection's [lb, ub] bracket: a step that
// leaves the bracket is replaced by a bisection step, or by doubling φ
// while no upper end is known. It stops when |F − λ′| ≤ tolF, the
// accuracy of F itself; or when the bracket shrinks to relative width
// eps, the plateau case where F jumps across λ′ and the segment repair
// takes over.
//
// F is concave between adjacent entry points, so from below λ′ Newton
// converges monotonically. It stalls where λ′ falls just past an entry
// whose station's marginal cost is nearly flat: F's slope below the
// entry is far smaller than above it, so steps overshoot from below and
// fall back across the entry from above. Once a lower end is known, a
// step from above therefore stops on the first entry it would cross;
// F′ there is the right-derivative, so if the probe lands below λ′ the
// iteration continues from below on the concave piece above the entry.
// After maxNewtonSteps the search only bisects, which bounds the cost
// of any input Newton handles badly.
func newtonPhi(ev *sparseFleet, lambda, start, eps, tolF float64, needEndpoints bool) (phiSolution, error) {
	sol := ev.newSolution()
	lb, ub := 0.0, math.Inf(1)
	hasLo := false
	phi := start
	for i := 0; i < numeric.MaxIterations; i++ {
		f, slope := ev.ratesAt(phi)
		sol.Evals++
		if f >= lambda {
			ub = phi
			sol.RatesHi = append(sol.RatesHi[:0], ev.scratch...)
			sol.FHi = f
		} else {
			lb = phi
			sol.RatesLo = append(sol.RatesLo[:0], ev.scratch...)
			sol.FLo = f
			hasLo = true
		}
		if f > 0 && math.Abs(f-lambda) <= tolF {
			// Converged: the end just cached holds the allocation at φ.
			// F = 0 never converges, however small λ′ is against tolF:
			// no station carries load there, so there is nothing for the
			// conservation projection to scale up to λ′.
			sol.Phi, sol.F = phi, f
			sol.Rates = sol.RatesLo
			if f >= lambda {
				sol.Rates = sol.RatesHi
			}
			return sol, nil
		}
		bounded := !math.IsInf(ub, 1)
		if bounded && ub-lb <= eps*ub {
			break
		}
		next := math.NaN()
		if slope > 0 && i < maxNewtonSteps {
			step := (lambda - f) / slope
			if math.Abs(step) < eps*phi {
				// Converged in φ to the bracket's resolution while F still
				// misses λ′ by more than tolF: F moves by more than its own
				// accuracy per resolvable step of φ. Step by that
				// resolution so the next probe closes the bracket.
				step = math.Copysign(eps*phi, step)
			}
			next = phi + step
		}
		if !(next > lb && next < ub) {
			if bounded {
				next = lb + (ub-lb)/2
			} else {
				next = 2 * phi
			}
		}
		if f >= lambda && hasLo {
			if k := sort.SearchFloat64s(ev.entries, phi); k > 0 && ev.entries[k-1] > next {
				next = ev.entries[k-1]
			}
		}
		phi = next
	}
	if math.IsInf(ub, 1) {
		return sol, numeric.ErrMaxIterations
	}
	sol.settleSegment(ev, lb, ub, hasLo, needEndpoints)
	return sol, nil
}

// maxNewtonSteps bounds the Newton phase of newtonPhi. Random groups
// whose stations have nearly flat marginal costs, the hardest inputs
// for it, converge within about 40 evaluations.
const maxNewtonSteps = 64

// settleSegment finishes a search that ended on the bracket [lb, ub],
// with φ at its midpoint. When the segment repair will follow, it needs
// both ends; if no probe ever landed below λ′ (so the lower end is
// still φ = 0), the lower end is evaluated once, and F(0) = 0 because
// every idle marginal cost is positive. Otherwise (NoRescale) the raw
// allocation at the midpoint is evaluated.
func (sol *phiSolution) settleSegment(ev *sparseFleet, lb, ub float64, hasLo, needEndpoints bool) {
	sol.Phi = lb + (ub-lb)/2
	if !needEndpoints {
		sol.F, _ = ev.ratesAt(sol.Phi)
		sol.Rates = append(sol.Rates[:0], ev.scratch...)
		sol.Evals++
		return
	}
	if !hasLo {
		sol.FLo, _ = ev.ratesAt(lb)
		sol.RatesLo = append(sol.RatesLo[:0], ev.scratch...)
		sol.Evals++
	}
	sol.Segment = true
}

// conserve makes sol.Rates total exactly λ′.
//
// F can be (numerically) discontinuous at the optimal φ: a large,
// lightly loaded station has an almost *flat* marginal cost ≈ x̄_i/λ′
// over a wide rate range (queueing is negligible until its utilization
// grows), so as φ crosses that plateau the induced rate, and F, jumps.
// The optimizing set at the jump is the whole segment between the two
// sides, every point of which satisfies the KKT conditions; when the
// search ended on such a segment (FLo < λ′ ≤ FHi by construction),
// pick the point on it meeting the conservation constraint exactly,
// interpolated in place over the lower end's vector. The float dust
// left after that is removed by an exact projection whose factor is
// 1 ± O(ε), undone if it would de-stabilize a station.
func (sol *phiSolution) conserve(ev *sparseFleet, lambda float64) {
	if sol.Segment {
		t := (lambda - sol.FLo) / (sol.FHi - sol.FLo)
		sol.Rates = sol.RatesLo
		for i, hi := range sol.RatesHi {
			sol.Rates[i] += t * (hi - sol.Rates[i])
		}
		sol.F = ev.totalOf(sol.Rates)
	}
	rates, f := sol.Rates, sol.F
	if f > 0 {
		scale := lambda / f
		for i := range rates {
			rates[i] *= scale
		}
		if err := ev.feasible(rates); err != nil {
			for i := range rates {
				rates[i] /= scale
			}
		}
	}
}

func isInfNaN(v float64) bool { return math.IsInf(v, 0) || math.IsNaN(v) }
