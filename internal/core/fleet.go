package core

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/numeric"
)

// Fleet is a group indexed once for any number of solves: validated,
// and clustered into classes of stations with an identical (size,
// speed, special-rate) signature. Every solve in this package runs
// through a Fleet; the free Optimize, OptimizeDegraded and
// OptimizeTotal build one per call, while a long-lived caller
// (serve.Server) builds one per daemon and keeps it, so a re-plan
// neither re-validates nor re-clusters. A group whose stations all
// differ is its one-station-per-class case.
//
// A Fleet is immutable after NewFleet, so concurrent solves on one
// Fleet are safe. It keeps the group it was built from, which must not
// change while the Fleet is in use.
type Fleet struct {
	g *model.Group
	// classOf maps each station to its class; classes are numbered in
	// order of first appearance.
	classOf []int32
	classes []fleetClass
	// counts holds each class's member count.
	counts []int
}

// fleetClass is one signature class of a Fleet.
type fleetClass struct {
	rep model.Server // the first member
	// capacity is the class's service rate m·s/r̄ and maxRate its
	// generic headroom λ′_max = m·s/r̄ − λ″, per member.
	capacity, maxRate float64
}

// NewFleet validates g and clusters its stations into classes.
func NewFleet(g *model.Group) (*Fleet, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil group")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	guess := min(g.N(), 64)
	f := &Fleet{
		g:       g,
		classOf: make([]int32, g.N()),
		classes: make([]fleetClass, 0, guess),
		counts:  make([]int, 0, guess),
	}
	// Classes are keyed on bits: two stations share a class only when
	// their inner problems are the same arithmetic.
	type signature struct {
		size           int
		speed, special uint64
	}
	ids := make(map[signature]int32, guess)
	for i, s := range g.Servers {
		key := signature{s.Size, math.Float64bits(s.Speed), math.Float64bits(s.SpecialRate)}
		c, ok := ids[key]
		if !ok {
			c = int32(len(f.classes))
			ids[key] = c
			f.classes = append(f.classes, fleetClass{
				rep:      s,
				capacity: s.Capacity(g.TaskSize),
				maxRate:  s.MaxGenericRate(g.TaskSize),
			})
			f.counts = append(f.counts, 0)
		}
		f.classOf[i] = c
		f.counts[c]++
	}
	return f, nil
}

// Group returns the group the Fleet indexes.
func (f *Fleet) Group() *model.Group { return f.g }

// N returns the number of stations.
func (f *Fleet) N() int { return len(f.classOf) }

// survivorCounts returns each class's members that are up (all of them
// for up == nil, in the Fleet's own read-only counts) and their total.
// up must be nil or have one entry per station.
func (f *Fleet) survivorCounts(up []bool) ([]int, int) {
	if up == nil {
		return f.counts, len(f.classOf)
	}
	counts := make([]int, len(f.classes))
	total := 0
	for i, c := range f.classOf {
		if up[i] {
			counts[c]++
			total++
		}
	}
	return counts, total
}

// headroom returns Σ counts_c·max(0, rhoCap·capacity_c − λ″_c), summed
// exactly: the generic rate the counted stations absorb at utilization
// rhoCap (λ′_max at rhoCap = 1).
func (f *Fleet) headroom(counts []int, rhoCap float64) float64 {
	var sum numeric.ExactSum
	for c := range f.classes {
		r := f.classes[c].maxRate
		if rhoCap < 1 {
			r = rhoCap*f.classes[c].capacity - f.classes[c].rep.SpecialRate
		}
		if r > 0 {
			sum.AddMul(counts[c], r)
		}
	}
	return sum.Value()
}

// AdmissionCeiling is the total generic rate at which admission control
// starts to shed over the stations up (all for up == nil, otherwise one
// entry per station): (1 − DefaultAdmissionMargin) times their
// saturation rate, or their capped rate under Options.MaxUtilization
// when that is in (0, 1). OptimizeDegraded admits every λ′ below it in
// full and sheds down to it from any λ′ at or above it.
func (f *Fleet) AdmissionCeiling(up []bool, opts Options) float64 {
	counts, _ := f.survivorCounts(up)
	return f.ceiling(counts, opts)
}

// ceiling is AdmissionCeiling over per-class survivor counts.
func (f *Fleet) ceiling(counts []int, opts Options) float64 {
	rhoCap := 1.0
	if opts.MaxUtilization > 0 && opts.MaxUtilization < 1 {
		rhoCap = opts.MaxUtilization
	}
	return (1 - DefaultAdmissionMargin) * f.headroom(counts, rhoCap)
}

// solve is the one body behind every solve: the stations up (per up,
// with counts their per-class tally) at total rate λ′. It checks what
// Optimize promises to reject, then runs the class evaluator under the
// outer φ search: one Newton inner solver per class with survivors, or
// the paper's bisection (FindRateLimited) on each class's
// representative under PureBisection.
func (f *Fleet) solve(lambda float64, up []bool, counts []int, opts Options) (*Result, error) {
	if !opts.Discipline.Valid() {
		return nil, fmt.Errorf("core: unknown discipline %d", int(opts.Discipline))
	}
	if math.IsNaN(lambda) || lambda <= 0 {
		return nil, fmt.Errorf("core: total generic rate λ′=%g must be positive", lambda)
	}
	if max := f.headroom(counts, 1); lambda >= max {
		return nil, fmt.Errorf("core: λ′=%g at or beyond saturation λ′_max=%g", lambda, max)
	}
	rhoCap := 1.0
	if opts.MaxUtilization != 0 { //bladelint:allow floateq -- zero means the option was not set, an exact default
		if opts.MaxUtilization <= 0 || opts.MaxUtilization >= 1 {
			return nil, fmt.Errorf("core: MaxUtilization %g must be in (0, 1)", opts.MaxUtilization)
		}
		rhoCap = opts.MaxUtilization
		// Require real headroom: the search needs the capped system to
		// be able to absorb strictly more than λ′.
		if capTotal := f.headroom(counts, rhoCap); capTotal <= lambda*(1+1e-9) {
			return nil, fmt.Errorf("core: λ′=%g leaves no headroom under capped capacity %g at ρ ≤ %g",
				lambda, capTotal, rhoCap)
		}
	}
	eps := opts.epsilon()
	rbar, d := f.g.TaskSize, opts.Discipline
	var bisect func(s model.Server, phi float64) float64
	if opts.PureBisection {
		bisect = func(s model.Server, phi float64) float64 {
			return FindRateLimited(s, rbar, lambda, phi, d, eps, rhoCap)
		}
	}
	sf := newSparseFleet(f, counts, func(s model.Server) stationSolver {
		return newStationSolver(s, rbar, lambda, d, eps, rhoCap)
	}, bisect)
	sol, err := searchPhi(sf, lambda, eps, opts)
	if err != nil {
		return nil, fmt.Errorf("core: failed to bracket φ: %w", err)
	}
	res := sf.result(sol.Rates, sol.Phi, up, d, lambda)
	res.cost.evals = sol.Evals
	for c := range sf.classes {
		res.cost.kernelCalls += sf.classes[c].solver.calls
	}
	return res, nil
}
