// Package plan answers the capacity-planning questions a cloud
// provider asks on top of the paper's model: how much generic load can
// this group admit under a response-time SLA, and how much hardware
// must be added to meet an SLA at a given load. All answers evaluate
// the *optimally distributed* system (core.Optimize), because the SLA
// frontier of a well-run data center is the frontier of the optimal
// policy, not of an arbitrary one.
package plan

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/queueing"
)

// minResponseTime returns the optimal T′ at load lambda, or +Inf when
// the load is infeasible.
func minResponseTime(g *model.Group, lambda float64, d queueing.Discipline) (float64, error) {
	res, err := core.Optimize(g, lambda, core.Options{Discipline: d})
	if err != nil {
		return math.Inf(1), err
	}
	return res.AvgResponseTime, nil
}

// minPossibleT returns the T′ floor of the group: the optimal T′ as
// λ′ → 0, which is the response time when every task can pick freely
// among the preloaded servers. No SLA below this is achievable.
func minPossibleT(g *model.Group, d queueing.Discipline) (float64, error) {
	lambda := 1e-6 * g.MaxGenericRate()
	return minResponseTime(g, lambda, d)
}

// MaxAdmissibleRate returns the largest total generic rate λ′ whose
// *optimal* distribution still meets T′ ≤ slaT — the admission-control
// limit of the group. The optimal T′ is continuous and increasing in
// λ′ (verified by tests), so the frontier is found by bisection. An
// error is returned if even a vanishing load violates the SLA.
//
// Each bisection probe re-solves the full optimization; the probes are
// warm-started by chaining the previous probe's Lagrange multiplier
// into core.Options.WarmPhi, which skips most of the φ-bracket
// expansion (tests pin that the warm path returns the bit-identical
// frontier of the cold path).
func MaxAdmissibleRate(g *model.Group, d queueing.Discipline, slaT float64) (float64, error) {
	return maxAdmissibleRate(g, d, slaT, true)
}

// maxAdmissibleRate is MaxAdmissibleRate with the warm start
// switchable, so tests can compare the warm path against the cold one.
func maxAdmissibleRate(g *model.Group, d queueing.Discipline, slaT float64, warmStart bool) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if slaT <= 0 || math.IsNaN(slaT) {
		return 0, fmt.Errorf("plan: SLA %g must be positive", slaT)
	}
	floor, err := minPossibleT(g, d)
	if err != nil {
		return 0, err
	}
	if floor > slaT {
		return 0, fmt.Errorf("plan: SLA %g below the group's floor %g — no load is admissible", slaT, floor)
	}
	max := g.MaxGenericRate()
	// meetsSLA is monotone (true then false as λ′ grows); bisect the
	// boundary. The top of the bracket always violates the SLA since
	// T′ → ∞ at saturation.
	var warmPhi float64
	violates := func(lambda float64) bool {
		probe := core.Options{Discipline: d}
		if warmStart {
			probe.WarmPhi = warmPhi
		}
		res, err := core.Optimize(g, lambda, probe)
		if err != nil {
			return true
		}
		if warmStart {
			warmPhi = res.Phi
		}
		return res.AvgResponseTime > slaT
	}
	lo := 1e-6 * max
	hi := (1 - 1e-9) * max
	if !violates(hi) {
		return hi, nil // SLA loose enough that saturation bounds first
	}
	boundary, err := numeric.BisectPredicate(violates, lo, hi, 1e-9*max)
	if err != nil {
		return 0, fmt.Errorf("plan: admission search failed: %w", err)
	}
	return boundary, nil
}

// MaxAdmissibleRatePercentile is MaxAdmissibleRate for a percentile
// SLA: the largest λ′ whose optimal FCFS distribution keeps the
// p-quantile of the generic response time at or below slaT ("p of
// generic tasks finish within slaT"). Only FCFS is supported, because
// the priority discipline has no closed-form response distribution.
func MaxAdmissibleRatePercentile(g *model.Group, p, slaT float64) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if slaT <= 0 || math.IsNaN(slaT) {
		return 0, fmt.Errorf("plan: SLA %g must be positive", slaT)
	}
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("plan: percentile %g must be in (0, 1)", p)
	}
	max := g.MaxGenericRate()
	quantileAt := func(lambda float64) (float64, error) {
		res, err := core.Optimize(g, lambda, core.Options{Discipline: queueing.FCFS})
		if err != nil {
			return 0, err
		}
		return core.GroupGenericQuantile(g, res.Rates, p)
	}
	lo := 1e-6 * max
	if q, err := quantileAt(lo); err != nil {
		return 0, err
	} else if q > slaT {
		return 0, fmt.Errorf("plan: percentile SLA %g below the group's floor %g", slaT, q)
	}
	violates := func(lambda float64) bool {
		q, err := quantileAt(lambda)
		return err != nil || q > slaT
	}
	hi := (1 - 1e-9) * max
	if !violates(hi) {
		return hi, nil
	}
	boundary, err := numeric.BisectPredicate(violates, lo, hi, 1e-8*max)
	if err != nil {
		return 0, fmt.Errorf("plan: percentile admission search failed: %w", err)
	}
	return boundary, nil
}

// BladePlacement describes one blade added by PlanBlades.
type BladePlacement struct {
	// Server is the index (0-based) that received the blade.
	Server int
	// ResponseTime is the optimal T′ after adding it.
	ResponseTime float64
}

// PlanBlades finds a minimal-length greedy sequence of single-blade
// additions that brings the optimal T′ at load lambda under slaT. Each
// step adds one blade to the server where it helps most (greedy
// steepest descent on T′). maxBlades bounds the search. The returned
// group is the expanded system; the original is not modified.
func PlanBlades(g *model.Group, d queueing.Discipline, lambda, slaT float64, maxBlades int) (*model.Group, []BladePlacement, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	if slaT <= 0 || math.IsNaN(slaT) {
		return nil, nil, fmt.Errorf("plan: SLA %g must be positive", slaT)
	}
	if lambda <= 0 || math.IsNaN(lambda) {
		return nil, nil, fmt.Errorf("plan: load %g must be positive", lambda)
	}
	if maxBlades < 0 {
		return nil, nil, fmt.Errorf("plan: maxBlades %d must be non-negative", maxBlades)
	}
	cur := g.Clone()
	var placements []BladePlacement

	evaluate := func(grp *model.Group) float64 {
		if lambda >= grp.MaxGenericRate() {
			return math.Inf(1)
		}
		t, err := minResponseTime(grp, lambda, d)
		if err != nil {
			return math.Inf(1)
		}
		return t
	}

	t := evaluate(cur)
	if t <= slaT {
		return cur, placements, nil // already compliant
	}
	for len(placements) < maxBlades {
		bestIdx := -1
		bestT := math.Inf(1)
		for i := range cur.Servers {
			trial := cur.Clone()
			trial.Servers[i].Size++
			if tt := evaluate(trial); tt < bestT {
				bestT, bestIdx = tt, i
			}
		}
		if bestIdx < 0 || math.IsInf(bestT, 1) {
			// Still saturated whatever single blade we add: grow raw
			// capacity fastest (the highest-speed server) until the
			// load becomes feasible, then resume steepest descent.
			for i := range cur.Servers {
				if bestIdx < 0 || cur.Servers[i].Speed > cur.Servers[bestIdx].Speed {
					bestIdx = i
				}
			}
		}
		cur.Servers[bestIdx].Size++
		placements = append(placements, BladePlacement{Server: bestIdx, ResponseTime: bestT})
		if bestT <= slaT {
			return cur, placements, nil
		}
	}
	return nil, placements, fmt.Errorf("plan: SLA %g not reachable within %d added blades (T′ = %g)",
		slaT, maxBlades, evaluate(cur))
}

// MinSpeedScale returns the smallest uniform speed multiplier k ≥ 1
// such that scaling every blade speed by k (and the special rates with
// them, preserving the preload utilization, as a hardware refresh
// does) meets T′ ≤ slaT at load lambda. Returns 1 if the group already
// complies, and an error if even maxScale does not help.
func MinSpeedScale(g *model.Group, d queueing.Discipline, lambda, slaT, maxScale float64) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if slaT <= 0 || lambda <= 0 || math.IsNaN(slaT) || math.IsNaN(lambda) {
		return 0, fmt.Errorf("plan: load %g and SLA %g must be positive", lambda, slaT)
	}
	if maxScale < 1 {
		return 0, fmt.Errorf("plan: maxScale %g must be ≥ 1", maxScale)
	}
	scaled := func(k float64) *model.Group {
		grp := g.Clone()
		for i := range grp.Servers {
			grp.Servers[i].Speed *= k
			grp.Servers[i].SpecialRate *= k // keep ρ″ constant
		}
		return grp
	}
	meets := func(k float64) bool {
		grp := scaled(k)
		if lambda >= grp.MaxGenericRate() {
			return false
		}
		t, err := minResponseTime(grp, lambda, d)
		return err == nil && t <= slaT
	}
	if meets(1) {
		return 1, nil
	}
	if !meets(maxScale) {
		return 0, fmt.Errorf("plan: SLA %g unreachable even at %gx speed", slaT, maxScale)
	}
	k, err := numeric.BisectPredicate(meets, 1, maxScale, 1e-9*maxScale)
	if err != nil {
		return 0, fmt.Errorf("plan: speed-scale search failed: %w", err)
	}
	return k, nil
}
