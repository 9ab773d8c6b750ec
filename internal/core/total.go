package core

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/queueing"
)

// TotalResult is the outcome of OptimizeTotal: a load distribution
// chosen to minimize the average response time over *all* tasks —
// generic and special together — rather than the paper's generic-only
// objective.
type TotalResult struct {
	// Rates are the generic arrival rates λ′_1..λ′_n.
	Rates []float64
	// Phi is the equalized marginal cost at the optimum.
	Phi float64
	// AvgAllTasks is the minimized fleet-wide average response time
	// Σ(λ′_i T′_i + λ″_i T″_i) / (λ′ + λ″).
	AvgAllTasks float64
	// AvgGeneric is the resulting generic-task average (≥ the value
	// the paper's optimizer would achieve, since the objective now
	// also protects special tasks).
	AvgGeneric float64
	// AvgSpecial is the resulting special-task average.
	AvgSpecial float64
	// Utilizations are ρ_1..ρ_n at the optimum.
	Utilizations []float64
}

// specialResponse returns the mean response time of the special tasks
// on a server at total utilization ρ: equal to the shared FCFS time
// under FCFS, and x̄ + W″ under priority.
func specialResponse(d queueing.Discipline, m int, rho, rhoSpecial, xbar float64) float64 {
	if d == queueing.Priority {
		return xbar + queueing.SpecialWaitTime(m, rho, rhoSpecial, xbar)
	}
	return queueing.GenericResponseTime(queueing.FCFS, m, rho, rhoSpecial, xbar)
}

// dSpecialResponseDRho is ∂T″/∂ρ holding ρ″ fixed.
func dSpecialResponseDRho(d queueing.Discipline, m int, rho, rhoSpecial, xbar float64) float64 {
	if d == queueing.Priority {
		if rhoSpecial >= 1 {
			return math.Inf(1) // consistent with DGenericResponseDRho
		}
		// W″ = C(ρ)·x̄/(m(1−ρ″)): only C depends on ρ.
		return queueing.DErlangCdRho(m, rho) * xbar / (float64(m) * (1 - rhoSpecial))
	}
	return queueing.DGenericResponseDRho(queueing.FCFS, m, rho, rhoSpecial, xbar)
}

// totalMarginalCost is ∂/∂λ′_i of Σ_j (λ′_j T′_j + λ″_j T″_j)/Λ:
//
//	(1/Λ) [ T′_i + ρ′_i ∂T′_i/∂ρ + ρ″_i ∂T″_i/∂ρ ].
//
// Both T′ and T″ are convex increasing in ρ, so the marginal cost is
// increasing in λ′_i and the bisection structure of the paper's
// algorithms carries over unchanged.
func totalMarginalCost(s model.Server, d queueing.Discipline, rate, bigLambda, rbar float64) float64 {
	xbar := s.ServiceMean(rbar)
	rho := s.Utilization(rate, rbar)
	if rho >= 1 {
		return math.Inf(1)
	}
	rhoS := s.SpecialUtilization(rbar)
	rhoG := rate * xbar / float64(s.Size)
	t := queueing.GenericResponseTime(d, s.Size, rho, rhoS, xbar)
	dt := queueing.DGenericResponseDRho(d, s.Size, rho, rhoS, xbar)
	dts := dSpecialResponseDRho(d, s.Size, rho, rhoS, xbar)
	return (t + rhoG*dt + rhoS*dts) / bigLambda
}

// OptimizeTotal distributes the generic stream to minimize the average
// response time of all tasks (generic + special), an objective the
// paper does not treat: its optimizer deliberately sacrifices special
// tasks (whose placement is fixed) when that helps generic ones. With
// no special load the two objectives coincide, which tests verify.
func OptimizeTotal(g *model.Group, lambda float64, opts Options) (*TotalResult, error) {
	f, err := NewFleet(g)
	if err != nil {
		return nil, err
	}
	if !opts.Discipline.Valid() {
		return nil, fmt.Errorf("core: unknown discipline %d", int(opts.Discipline))
	}
	if math.IsNaN(lambda) || lambda <= 0 {
		return nil, fmt.Errorf("core: total generic rate λ′=%g must be positive", lambda)
	}
	if max := g.MaxGenericRate(); lambda >= max {
		return nil, fmt.Errorf("core: λ′=%g at or beyond saturation λ′_max=%g", lambda, max)
	}
	eps := opts.epsilon()
	bigLambda := lambda + g.TotalSpecialRate()

	rateFor := func(s model.Server, phi float64) float64 {
		maxRate := s.MaxGenericRate(g.TaskSize)
		if maxRate <= 0 {
			return 0
		}
		pred := func(l float64) bool {
			return totalMarginalCost(s, opts.Discipline, l, bigLambda, g.TaskSize) >= phi
		}
		if pred(0) {
			return 0
		}
		capRate := (1 - eps) * maxRate
		if !pred(capRate) {
			return capRate
		}
		ub, err := numeric.ExpandUpper(pred, maxRate/1024, maxRate, 1-eps)
		if err != nil {
			return capRate
		}
		r, err := numeric.BisectPredicate(pred, 0, ub, eps*maxRate)
		if err != nil {
			return capRate
		}
		return r
	}
	// Newton-accelerated per-class solvers on the fleet-wide marginal
	// cost; rateFor above is the pure-bisection oracle, the only inner
	// path under opts.PureBisection.
	var bisect func(s model.Server, phi float64) float64
	if opts.PureBisection {
		bisect = rateFor
	}
	sf := newSparseFleet(f, f.counts, func(s model.Server) stationSolver {
		ss := newStationSolver(s, g.TaskSize, bigLambda, opts.Discipline, eps, 1)
		ss.useTotalObjective()
		return ss
	}, bisect)
	// The fleet-wide objective always conserves λ′ exactly.
	opts.NoRescale = false
	sol, err := searchPhi(sf, lambda, eps, opts)
	if err != nil {
		return nil, fmt.Errorf("core: failed to bracket φ: %w", err)
	}
	rateOf := sf.rateOf(sol.Rates)
	rates := make([]float64, g.N())
	for i, c := range f.classOf {
		rates[i] = rateOf[c]
	}

	res := &TotalResult{Rates: rates, Phi: sol.Phi, Utilizations: g.Utilizations(rates)}
	var all, gen, spe numeric.KahanSum
	var speRate numeric.KahanSum
	for i, s := range g.Servers {
		xbar := s.ServiceMean(g.TaskSize)
		rho := res.Utilizations[i]
		rhoS := s.SpecialUtilization(g.TaskSize)
		tg := queueing.GenericResponseTime(opts.Discipline, s.Size, rho, rhoS, xbar)
		ts := specialResponse(opts.Discipline, s.Size, rho, rhoS, xbar)
		all.Add(rates[i]*tg + s.SpecialRate*ts)
		gen.Add(rates[i] * tg)
		spe.Add(s.SpecialRate * ts)
		speRate.Add(s.SpecialRate)
	}
	res.AvgAllTasks = all.Value() / bigLambda
	res.AvgGeneric = gen.Value() / lambda
	if speRate.Value() > 0 {
		res.AvgSpecial = spe.Value() / speRate.Value()
	}
	return res, nil
}
