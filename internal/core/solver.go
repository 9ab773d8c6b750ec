package core

import (
	"math"

	"repro/internal/model"
	"repro/internal/queueing"
)

// stationSolver caches everything the paper's Find_λ′_i recomputes from
// scratch on every call — the station kernel, service-time constants,
// the (possibly capped) saturation bound — and solves the inner
// marginal-cost equation with a bracketed Newton iteration instead of
// pure bisection. Across the outer φ search the solver also warm-starts
// each solve from the rate found at the previous φ, which is within a
// few Newton steps of the new root once the outer bracket narrows.
//
// The pure-bisection path (FindRateLimited) remains the oracle: the
// Newton iteration maintains a [lo, hi] bracket with the same monotone
// predicate semantics and converges to the same root within the same
// ε·λ′_max tolerance, falling back to bisection outright if it fails to
// contract. Agreement to ≤ 1e-9 is pinned by TestNewtonMatchesBisection,
// FuzzNewtonInnerSolve and, for warm-started sequences,
// FuzzNewtonWarmSequence.
type stationSolver struct {
	kern *queueing.Kernel
	d    queueing.Discipline

	mf      float64 // m_i
	xbar    float64 // x̄_i = r̄/s_i
	special float64 // λ″_i
	rhoS    float64 // ρ″_i
	total   float64 // λ′ (the outer problem's total generic rate)

	maxRate float64 // λ′_max,i under the active utilization cap
	capRate float64 // (1−ε)·maxRate, the stability-guarded ceiling
	tol     float64 // ε·maxRate, the bisection's interval tolerance

	// totalObj switches the marginal cost to the fleet-wide objective of
	// OptimizeTotal, which adds the special-task term ρ″ ∂T″/∂ρ (and
	// divides by Λ = λ′ + λ″ instead of λ′, carried in total).
	totalObj bool

	// mc0 and mcCap are the marginal cost at the ends of the feasible
	// range, MC(0) and MC(capRate), and dmc0 is MC′(0). None depends on
	// φ, so they are computed once per solver instead of once per inner
	// solve; mc0 is +Inf when the station has no generic headroom.
	mc0, mcCap, dmc0 float64

	prev float64 // previous solve's rate for warm starts; < 0 when unset
	// dlam is dλ′_i/dφ = 1/MC′ at the last solve's rate, the station's
	// share of F′(φ) in the outer Newton search; 0 when the last solve
	// ended on a bound (0 or capRate), where the rate does not move
	// with φ, except at φ = MC(0) exactly, where it is the
	// right-derivative 1/MC′(0).
	dlam float64
	// calls counts costDeriv evaluations (M/M/m kernel calls), the
	// unit the solver's cost is measured in.
	calls int
}

// newStationSolver mirrors the setup lines of FindRateLimited once, so
// the per-φ solves skip them.
func newStationSolver(s model.Server, rbar, lambdaTotal float64, d queueing.Discipline, eps, rhoCap float64) stationSolver {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	maxRate := s.MaxGenericRate(rbar)
	if rhoCap > 0 && rhoCap < 1 {
		if capped := rhoCap*s.Capacity(rbar) - s.SpecialRate; capped < maxRate {
			maxRate = capped
		}
	}
	ss := stationSolver{
		kern:    queueing.KernelFor(s.Size),
		d:       d,
		mf:      float64(s.Size),
		xbar:    s.ServiceMean(rbar),
		special: s.SpecialRate,
		total:   lambdaTotal,
		maxRate: maxRate,
		prev:    -1,
	}
	ss.rhoS = s.SpecialRate * ss.xbar / ss.mf
	ss.capRate = (1 - eps) * maxRate
	ss.tol = eps * maxRate
	ss.cacheEnds()
	return ss
}

// useTotalObjective switches the solver to OptimizeTotal's fleet-wide
// marginal cost and refreshes the cached range ends under it.
func (ss *stationSolver) useTotalObjective() {
	ss.totalObj = true
	ss.cacheEnds()
}

// cacheEnds computes MC(0) and MC(capRate) for the active objective.
func (ss *stationSolver) cacheEnds() {
	if ss.maxRate <= 0 {
		ss.mc0, ss.mcCap = math.Inf(1), math.Inf(1)
		return
	}
	ss.mc0, ss.dmc0 = ss.costDeriv(0)
	ss.mcCap, _ = ss.costDeriv(ss.capRate)
}

// costDeriv returns the marginal cost (1/λ′)(T′ + ρ′ ∂T′/∂ρ) at generic
// rate l together with its derivative in l. One kernel evaluation
// yields T′, ∂T′/∂ρ and ∂²T′/∂ρ², and the chain rule with
// dρ/dl = dρ′/dl = x̄/m gives
//
//	d(MC)/dl = (x̄/m)(2 ∂T′/∂ρ + ρ′ ∂²T′/∂ρ²) / λ′ > 0
//
// (positive by convexity of T′, which keeps the Newton slope usable).
func (ss *stationSolver) costDeriv(l float64) (mc, dmc float64) {
	ss.calls++
	rho := (l + ss.special) * ss.xbar / ss.mf
	if rho >= 1 {
		return math.Inf(1), math.Inf(1)
	}
	rhoG := l * ss.xbar / ss.mf
	t, dt, d2t := ss.kern.Response(ss.d, rho, ss.rhoS, ss.xbar)
	if ss.totalObj {
		// Fleet-wide objective (OptimizeTotal): add ρ″ ∂T″/∂ρ. Under
		// FCFS special tasks see the same shared queue, ∂T″/∂ρ = ∂T′/∂ρ;
		// under priority W″ = C(ρ)·x̄/(m(1−ρ″)), so its ρ-derivatives are
		// C′ and C″ scaled by x̄/(m(1−ρ″)).
		var dts, ddts float64
		if ss.d == queueing.Priority {
			_, dc, d2c := ss.kern.CDerivs(rho)
			scale := ss.xbar / (ss.mf * (1 - ss.rhoS))
			dts, ddts = dc*scale, d2c*scale
		} else {
			dts, ddts = dt, d2t
		}
		mc = (t + rhoG*dt + ss.rhoS*dts) / ss.total
		dmc = ss.xbar / ss.mf * (2*dt + rhoG*d2t + ss.rhoS*ddts) / ss.total
		return mc, dmc
	}
	mc = (t + rhoG*dt) / ss.total
	dmc = ss.xbar / ss.mf * (2*dt + rhoG*d2t) / ss.total
	return mc, dmc
}

// findRate solves MC(l) = φ for this station: the Newton-accelerated
// version of the paper's Fig. 2. Returns 0 when even an idle station's
// marginal cost reaches φ, and the capped rate when φ exceeds the
// marginal cost everywhere below the stability bound.
//
// Convergence leans on MC being convex and increasing in l. From below
// the root (g < 0) the Newton correction |g/MC′| over-estimates the
// distance to the root, so once it is within tol the corrected point is
// returned at once. From above (g ≥ 0) it under-estimates the distance,
// and is 0 on a stretch where MC = φ at float precision, where the
// paper's bisection returns the stretch's left end. So the first small
// correction from above is pushed tol/2 further, to close the bracket
// from below: a warm start that lands on the root costs at most two
// kernel calls, and on such a stretch the bisection steps take over.
func (ss *stationSolver) findRate(phi float64) float64 {
	ss.dlam = 0
	if ss.mc0 >= phi {
		if phi == ss.mc0 && ss.dmc0 > 0 { //bladelint:allow floateq -- φ sits exactly on the station's entry point (the outer search's cold start): F′ takes the right-derivative
			ss.dlam = 1 / ss.dmc0
		}
		return 0 // includes stations with no generic headroom (mc0 = +Inf)
	}
	if ss.mcCap < phi {
		// Outer loop overshooting φ; the whole feasible range is below.
		return ss.capRate
	}
	// Bracketed Newton on g(l) = MC(l) − φ with g(lo) < 0 ≤ g(hi).
	lo, hi := 0.0, ss.capRate
	x := ss.prev
	if !(x > lo && x < hi) {
		x = lo + (hi-lo)/2
	}
	pushed := false
	for i := 0; i < 120; i++ {
		mc, dmc := ss.costDeriv(x)
		g := mc - phi
		if g >= 0 {
			hi = x
		} else {
			lo = x
		}
		step := math.NaN()
		if dmc > 0 && !math.IsInf(g, 0) {
			step = g / dmc
		}
		if g < 0 && -step <= ss.tol {
			return ss.settle(math.Min(x-step, hi), dmc)
		}
		if hi-lo <= ss.tol {
			return ss.settle(lo+(hi-lo)/2, dmc)
		}
		xn := x - step
		if g >= 0 && step <= ss.tol && !pushed {
			xn -= ss.tol / 2
			pushed = true
		}
		if !(xn > lo && xn < hi) {
			xn = lo + (hi-lo)/2 // safeguard: fall back to a bisection step
		}
		if xn == x { //bladelint:allow floateq -- fixed point: the Newton update no longer moves x at float resolution
			return ss.settle(x, dmc)
		}
		x = xn
	}
	// The iteration failed to contract (pathological inputs); defer to
	// the paper's bisection, the oracle path.
	return ss.bisectFallback(phi)
}

// settle records a converged interior solve: its rate as the next warm
// start and 1/MC′ there as the station's share of F′(φ).
func (ss *stationSolver) settle(r, dmc float64) float64 {
	ss.prev = r
	ss.dlam = 0
	if dmc > 0 && !math.IsInf(dmc, 0) {
		ss.dlam = 1 / dmc
	}
	return r
}

// bisectFallback reruns the solve with the paper's pure-bisection
// primitive over the same bracket and tolerance.
func (ss *stationSolver) bisectFallback(phi float64) float64 {
	lo, hi := 0.0, ss.capRate
	dmc := math.NaN()
	for i := 0; i < 20000 && hi-lo > ss.tol; i++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi { //bladelint:allow floateq -- bisection fixed point: the midpoint collided with a bound
			break
		}
		var mc float64
		if mc, dmc = ss.costDeriv(mid); mc >= phi {
			hi = mid
		} else {
			lo = mid
		}
	}
	return ss.settle(lo+(hi-lo)/2, dmc)
}
