// Package core implements the paper's primary contribution: the optimal
// distribution of a generic task stream over heterogeneous blade servers
// preloaded with special tasks, minimizing the average response time of
// generic tasks (Li, J. Grid Computing 2013, §3–§4).
//
// The entry point is Optimize, which solves the problem the paper's
// Fig. 3 ("Calculate T′") solves: an outer search for the Lagrange
// multiplier φ wrapped around a per-server inner search, Fig. 2
// ("Find_λ′_i", exposed here as FindRate). By default both searches
// are safeguarded Newton iterations; Options.PureBisection runs the
// paper's literal bisections. Both disciplines (shared FCFS and special
// tasks with non-preemptive priority) are supported through
// queueing.Discipline.
//
// For the single-blade case m_1 = … = m_n = 1 the paper gives closed
// forms (Theorems 1 and 3), implemented in closedform.go; they serve as
// independent oracles for the numeric solver.
package core

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/queueing"
)

// Options configures the optimizer.
type Options struct {
	// Discipline selects FCFS (special tasks without priority, §3) or
	// Priority (special tasks with higher priority, §4).
	Discipline queueing.Discipline
	// Epsilon is the tolerance ε of the paper's algorithms, applied to
	// both the inner search over λ′_i (interval ε·λ′_max,i) and the
	// outer search over φ (relative bracket width ε, or for the Newton
	// search a residual |F − λ′| ≤ ε·Σλ′_max,i). Non-positive means
	// DefaultEpsilon.
	Epsilon float64
	// NoRescale disables the final conservation projection that scales
	// the rates so they sum to exactly λ′ (the paper's algorithm leaves
	// a residual of order ε). Mainly for tests that exercise the raw
	// algorithm.
	NoRescale bool
	// MaxUtilization, when in (0, 1), caps every server's total
	// utilization ρ_i at that value — an operational guard band the
	// paper does not model (its only constraint is ρ_i < 1). Zero
	// means uncapped. The optimum under a binding cap pins capped
	// servers at the bound and equalizes marginal costs among the
	// rest, which is exactly what the clamped inner search produces.
	MaxUtilization float64
	// Parallel is ignored: every solve runs its inner searches in one
	// goroutine.
	//
	// Deprecated: ignored.
	Parallel bool
	// WarmPhi, when positive, warm-starts the outer search for the
	// Lagrange multiplier from a previous solve's Phi — the failover
	// and drift fast path: after a failure, a recovery or a rate change
	// the optimal φ moves by a bounded factor, so the Newton search
	// starts at WarmPhi itself. Zero starts cold at min_i MC_i(0), below
	// which F(φ) = 0. Under PureBisection the doubling starts from
	// WarmPhi/16, and zero reproduces the paper's cold start from 1e-12.
	WarmPhi float64
	// PureBisection runs the paper's literal algorithms: Fig. 3's
	// doubling and bisection for φ, and Fig. 2's bisection
	// (FindRateLimited) for every inner solve, in place of the
	// safeguarded Newton iterations. Slower by an order of magnitude;
	// it is the oracle the default path is verified against
	// (TestNewtonMatchesBisection, FuzzOptimizeNewton) and the faithful
	// transcription for paper-fidelity ablations.
	PureBisection bool
	// Sparse is ignored: every solve clusters the group into classes
	// of identical stations (see Fleet).
	//
	// Deprecated: ignored.
	Sparse bool
}

// DefaultEpsilon is the default bisection tolerance. It reproduces the
// paper's seven published decimal digits.
const DefaultEpsilon = 1e-12

func (o Options) epsilon() float64 {
	if o.Epsilon <= 0 {
		return DefaultEpsilon
	}
	return o.Epsilon
}

// Result is an optimal (or candidate) load distribution.
type Result struct {
	// Rates are the generic arrival rates λ′_1..λ′_n.
	Rates []float64
	// Phi is the Lagrange multiplier at the optimum: the common
	// marginal cost ∂T′/∂λ′_i of every server carrying generic load.
	Phi float64
	// AvgResponseTime is the minimized T′ = Σ (λ′_i/λ′) T′_i.
	AvgResponseTime float64
	// Utilizations are ρ_1..ρ_n under the optimal rates.
	Utilizations []float64
	// ResponseTimes are the per-server generic response times T′_i.
	ResponseTimes []float64
	// Discipline echoes the discipline optimized for.
	Discipline queueing.Discipline
	// TotalRate echoes λ′.
	TotalRate float64
	// Sparse is the compact (station, rate) form of the allocation,
	// the stations with positive rate, ascending, when the allocation
	// is sparse: at least 64 stations, at most half of them loaded.
	// Otherwise it is nil, and Rates is the form to use.
	Sparse *SparseRates
	// Classes is the number of distinct (size, speed, special-rate)
	// classes with survivors that the solve ran over.
	Classes int

	cost solveCost
}

// solveCost is the work one solve took: F(φ) evaluations of the outer
// search, and kernel calls of the Newton inner solvers (the paper's
// bisection, under PureBisection, is not counted).
type solveCost struct{ evals, kernelCalls int }

// Optimize solves the paper's optimal load distribution problem: given
// the group g and the total generic arrival rate lambda, it returns the
// rates λ′_i minimizing the average generic response time T′ subject to
// Σλ′_i = λ′ and ρ_i < 1.
//
// It follows the structure of the algorithm in Fig. 3 of the paper:
// find the Lagrange multiplier φ at which the induced total rate F(φ)
// reaches λ′, then evaluate the per-server rates and T′ (lines 28–37).
// The paper grows φ by doubling (lines 1–10) and bisects (lines
// 11–27), some 80 F(φ) evaluations of a full inner bisection each. By
// default φ is found by a safeguarded Newton iteration on F, whose slope
// the Newton inner solves provide, in a handful of evaluations; the
// result agrees with the literal algorithm (Options.PureBisection) to
// ≤ 1e-9.
func Optimize(g *model.Group, lambda float64, opts Options) (*Result, error) {
	f, err := NewFleet(g)
	if err != nil {
		return nil, err
	}
	return f.solve(lambda, nil, f.counts, opts)
}

// FindRate implements the paper's Fig. 2 algorithm Find_λ′_i: the
// generic rate λ′_i at which server s's marginal cost
// (1/λ′)(T′_i + ρ′_i ∂T′_i/∂ρ_i) reaches phi, searched by bisection
// over [0, (1−ε)(m_i/x̄_i − λ″_i)). If even an idle server's marginal
// cost exceeds phi, the server receives no generic load and 0 is
// returned; if the marginal cost never reaches phi below the stability
// cap, the capped rate is returned.
func FindRate(s model.Server, rbar, lambdaTotal, phi float64, d queueing.Discipline, eps float64) float64 {
	return FindRateLimited(s, rbar, lambdaTotal, phi, d, eps, 1)
}

// FindRateLimited is FindRate with an additional utilization ceiling:
// the returned rate never drives the server's total utilization above
// rhoCap (pass 1 for the paper's pure stability constraint).
func FindRateLimited(s model.Server, rbar, lambdaTotal, phi float64, d queueing.Discipline, eps, rhoCap float64) float64 {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	maxRate := s.MaxGenericRate(rbar)
	if rhoCap > 0 && rhoCap < 1 {
		if capped := rhoCap*s.Capacity(rbar) - s.SpecialRate; capped < maxRate {
			maxRate = capped
		}
	}
	if maxRate <= 0 {
		return 0 // special tasks (or the cap) leave no headroom
	}
	pred := func(l float64) bool {
		return s.MarginalCost(d, l, lambdaTotal, rbar) >= phi
	}
	if pred(0) {
		return 0
	}
	capRate := (1 - eps) * maxRate
	if !pred(capRate) {
		// φ exceeds the marginal cost everywhere below the stability
		// bound (only happens while the outer loop overshoots φ).
		return capRate
	}
	ub, err := numeric.ExpandUpper(pred, maxRate/1024, maxRate, 1-eps)
	if err != nil {
		return capRate
	}
	rate, err := numeric.BisectPredicate(pred, 0, ub, eps*maxRate)
	if err != nil {
		return capRate
	}
	return rate
}

// KKTResidual measures how far an allocation is from the optimality
// conditions: for servers with λ′_i > 0 the marginal cost must equal
// the common multiplier (taken as the rate-weighted mean marginal cost
// of loaded servers), and for servers with λ′_i = 0 the marginal cost
// at zero must be at least that multiplier. The returned residual is
// the largest violation, relative to the multiplier. Small residual ⇒
// the allocation satisfies the paper's eq. (1).
func KKTResidual(g *model.Group, d queueing.Discipline, rates []float64) (float64, error) {
	if err := g.Feasible(rates); err != nil {
		return 0, err
	}
	var lambda numeric.KahanSum
	for _, r := range rates {
		lambda.Add(r)
	}
	l := lambda.Value()
	if l == 0 { //bladelint:allow floateq -- exact zero allocation is the error sentinel, never a computed value
		return 0, fmt.Errorf("core: KKT residual undefined for zero allocation")
	}
	// Rate-weighted mean marginal cost of loaded servers ≈ φ.
	var wsum, w numeric.KahanSum
	mcs := make([]float64, len(rates))
	for i, s := range g.Servers {
		mcs[i] = s.MarginalCost(d, rates[i], l, g.TaskSize)
		if rates[i] > 0 {
			wsum.Add(rates[i] * mcs[i])
			w.Add(rates[i])
		}
	}
	phi := wsum.Value() / w.Value()
	var worst float64
	for i, r := range rates {
		var viol float64
		if r > 0 {
			viol = math.Abs(mcs[i]-phi) / phi
		} else if mcs[i] < phi {
			viol = (phi - mcs[i]) / phi
		}
		if viol > worst {
			worst = viol
		}
	}
	return worst, nil
}
