package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/queueing"
)

// This file implements the class evaluator every solve in this package
// runs on: Optimize, OptimizeDegraded and OptimizeTotal alike. Two
// structural facts make it exact, not approximate (DESIGN §14):
//
//  1. Class symmetry. Stations with an identical (size, speed,
//     special-rate) signature have identical inner problems, and the
//     inner solve is a deterministic function of the φ sequence alone,
//     so every member of a class receives the bit-identical rate a
//     solver of its own would give it. One stationSolver per class
//     therefore replaces count-many identical solves per probe.
//  2. Exact pruning. A station receives zero generic load exactly when
//     its idle marginal cost MC(0) = T′_i(0)/λ′ is at least φ — the
//     first check of the paper's Find_λ′_i. MC(0) is a constant of the
//     solve, so with classes sorted by MC(0) a single binary search per
//     probe separates the active prefix from the provably-zero suffix,
//     and pruned classes pay no kernel evaluation at all. As the outer
//     doubling raises φ the active prefix only grows.
//
// F(φ) and every other total of the φ search is summed exactly
// (numeric.ExactSum), a class of n_c survivors contributing n_c·λ′_c in
// one AddMul. A correctly rounded sum has no order, so it is the same
// float as an exact sum over the stations one by one: the outer search
// takes the bit-identical φ trajectory whether or not a group is
// clustered, and a clustered solve is bit-identical to the same group
// solved with one class per station (pinned by
// TestSparseMatchesDenseBitIdentical), without walking the stations.

// SparseRates is a compact allocation over a fleet: the stations with
// strictly positive generic rate, in ascending station order. It is
// the (index, rate) representation downstream consumers use at fleet
// scale instead of n-wide dense slices of mostly zeros.
type SparseRates struct {
	// N is the fleet size the indices refer into.
	N int
	// Index holds the stations with positive rate, ascending.
	Index []int32
	// Rate holds the matching per-station generic rates λ′_i.
	Rate []float64
}

// NNZ returns the number of stations carrying generic load.
func (s *SparseRates) NNZ() int { return len(s.Index) }

// sparseClass is one class with survivors, as one solve sees it: the
// shared inner solver, how many surviving stations it stands for, and
// the pruning key.
type sparseClass struct {
	rep    model.Server
	solver stationSolver
	count  int   // surviving members
	id     int32 // the Fleet's class index (deterministic tie-break)
	// mc0 is the idle marginal cost MC(0); +Inf when special load (or
	// the utilization cap) leaves no generic headroom, so such classes
	// sort to the end and are never solved.
	mc0 float64
}

// sparseFleet is the class evaluator the outer φ search drives: the
// classes with survivors sorted by MC(0), and the per-probe scratch.
// The search's rate vectors are indexed like classes; it never looks
// inside them.
type sparseFleet struct {
	f       *Fleet
	classes []sparseClass
	// scratch holds the per-class rates of the most recent probe; the
	// search copies it out to cache evaluations at the ends of its
	// bracket, into lo and hi (newSolution).
	scratch, lo, hi []float64
	// slopes holds a probe's positive per-class F′ terms when every
	// class has one survivor (singles), the case of a group of distinct
	// stations such as Example 1: F and F′ are then plain sums of
	// per-class values, which numeric.SumExact rounds correctly on its
	// fast path in a few float operations per term.
	slopes  []float64
	singles bool
	// bisect, when non-nil, is the inner solve in place of the class
	// solvers' Newton iteration: the paper's bisection, the oracle.
	bisect func(s model.Server, phi float64) float64
	// entries holds the finite MC(0) of the classes, ascending: a
	// station enters the allocation as φ crosses its MC(0), so F is
	// concave between adjacent entries and its slope jumps up at each
	// one. F(φ) = 0 for every φ ≤ entries[0], the Newton search's cold
	// start. A station-by-station list would repeat an entry for every
	// member of a class, which the search cannot tell apart, since it
	// only looks up the nearest entry below φ.
	entries []float64
	// maxRate is Σ λ′_max,i, summed exactly, count × λ′_max per class.
	// Each inner solve is accurate to ε·λ′_max,i, so ε·maxRate is the
	// accuracy of F(φ) itself and the Newton search's residual
	// tolerance.
	maxRate float64
}

// newSparseFleet builds one inner solver per class with survivors
// (counts, indexed like the Fleet's classes) with newSolver, and sorts
// the classes by idle marginal cost for threshold pruning. The caller
// supplies the solvers, which depend on λ′ and the objective, and
// bisect, the inner solve under PureBisection (nil for Newton); the
// clustering is the Fleet's.
func newSparseFleet(f *Fleet, counts []int, newSolver func(s model.Server) stationSolver, bisect func(s model.Server, phi float64) float64) *sparseFleet {
	classes := make([]sparseClass, 0, len(f.classes))
	for c := range f.classes {
		if counts[c] == 0 {
			continue
		}
		rep := f.classes[c].rep
		cl := sparseClass{rep: rep, count: counts[c], id: int32(c), solver: newSolver(rep)}
		cl.mc0 = cl.solver.mc0
		classes = append(classes, cl)
	}
	slices.SortFunc(classes, func(a, b sparseClass) int {
		if c := cmp.Compare(a.mc0, b.mc0); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	k := len(classes)
	buf := make([]float64, 5*k)
	sf := &sparseFleet{
		f:       f,
		classes: classes,
		scratch: buf[:k:k],
		lo:      buf[k : 2*k : 2*k],
		hi:      buf[2*k : 3*k : 3*k],
		entries: buf[3*k : 3*k : 4*k],
		slopes:  buf[4*k : 4*k : 5*k],
		singles: true,
		bisect:  bisect,
	}
	var maxRate numeric.ExactSum
	for c := range classes {
		cl := &classes[c]
		sf.singles = sf.singles && cl.count == 1
		if r := cl.solver.maxRate; r > 0 {
			maxRate.AddMul(cl.count, r)
		}
		if !math.IsInf(cl.mc0, 1) {
			sf.entries = append(sf.entries, cl.mc0)
		}
	}
	sf.maxRate = maxRate.Value()
	return sf
}

// newSolution returns an empty search outcome whose cached ends fill
// the evaluator's lo and hi buffers, which hold one probe each.
func (sf *sparseFleet) newSolution() phiSolution {
	return phiSolution{RatesLo: sf.lo[:0], RatesHi: sf.hi[:0]}
}

// ratesAt evaluates F(φ) and F′(φ): the active prefix of classes
// (MC(0) ≤ φ) is solved, the pruned suffix is zeroed without any
// evaluation, and both totals are summed exactly over the active
// classes, count × rate. A class with MC(0) = φ exactly carries no rate
// but still contributes its right-derivative to F′, so it is solved
// too. The pruning key is the Newton solvers' MC(0), which the paper's
// bisection need not reproduce to the last bit, so under bisect every
// class is solved, as Fig. 3 solves every server.
func (sf *sparseFleet) ratesAt(phi float64) (float64, float64) {
	active := len(sf.classes)
	if sf.bisect == nil {
		active = sort.Search(active, func(i int) bool { return sf.classes[i].mc0 > phi })
	}
	rates := sf.scratch
	for c := active; c < len(rates); c++ {
		rates[c] = 0
		sf.classes[c].solver.dlam = 0
	}
	for c := 0; c < active; c++ {
		cl := &sf.classes[c]
		if sf.bisect != nil {
			rates[c] = sf.bisect(cl.rep, phi)
		} else {
			rates[c] = cl.solver.findRate(phi)
		}
	}
	if sf.singles {
		slopes := sf.slopes[:0]
		for c := 0; c < active; c++ {
			if d := sf.classes[c].solver.dlam; d > 0 { // never set under bisect
				slopes = append(slopes, d)
			}
		}
		// The same correctly rounded sums as the ExactSums below.
		return numeric.SumExact(rates[:active]), numeric.SumExact(slopes)
	}
	var sum, slope numeric.ExactSum
	for c := 0; c < active; c++ {
		cl := &sf.classes[c]
		sum.AddMul(cl.count, rates[c])
		if d := cl.solver.dlam; d > 0 {
			slope.AddMul(cl.count, d)
		}
	}
	return sum.Value(), slope.Value()
}

// totalOf sums a class-rate vector exactly, count × rate per class: the
// same float as an exact sum over the stations one by one.
func (sf *sparseFleet) totalOf(classRates []float64) float64 {
	var sum numeric.ExactSum
	for c := range sf.classes {
		sum.AddMul(sf.classes[c].count, classRates[c])
	}
	return sum.Value()
}

// feasible mirrors model.Group.Feasible over classes: every member of a
// class has the same utilization at the class rate, so one check per
// class decides the whole fleet.
func (sf *sparseFleet) feasible(classRates []float64) error {
	for c := range sf.classes {
		r := classRates[c]
		if r < 0 || math.IsNaN(r) {
			return fmt.Errorf("core: class %d rate %g must be non-negative", c, r)
		}
		if rho := sf.classes[c].rep.Utilization(r, sf.f.g.TaskSize); rho >= 1 {
			return fmt.Errorf("core: class %d unstable at λ′=%g (ρ=%g)", c, r, rho)
		}
	}
	return nil
}

// rateOf maps class rates, in the evaluator's MC(0) order, to the
// Fleet's classes: zero for a class without survivors.
func (sf *sparseFleet) rateOf(classRates []float64) []float64 {
	rateOf := make([]float64, len(sf.f.classes))
	for c := range sf.classes {
		rateOf[sf.classes[c].id] = classRates[c]
	}
	return rateOf
}

// result freezes the solved class rates into a Result: the full-length
// Rates, Utilizations and ResponseTimes, and, when the allocation is
// sparse (sparseResult), the compact (station, rate) form over fleet
// station indices. ρ_i and T′_i are functions of a station's signature
// and rate alone, so each is evaluated once per class and fanned out to
// the surviving members; a down station (up[i] false) keeps zero rate,
// utilization and response time.
//
// T′ = Σ_i (λ′_i/λ′)·T′_i is totalled per class, exactly: λ′ is the
// exact total of the class rates, count × rate, and each class adds
// count × (λ′_c/λ′)·T′_c, every member's term, to one numeric.ExactSum.
// The correctly rounded sum has no order, so a clustered solve's T′ is
// the bits of the same solve with one class per station, as every
// total of the φ search is.
func (sf *sparseFleet) result(classRates []float64, phi float64, up []bool, d queueing.Discipline, lambda float64) *Result {
	f := sf.f
	n := f.N()
	rbar := f.g.TaskSize
	k := len(f.classes)
	perClass := make([]float64, 3*k)
	rateOf, utilOf, respOf := perClass[:k], perClass[k:2*k], perClass[2*k:]
	nnz := 0
	for c := range sf.classes {
		id, rep, r := sf.classes[c].id, sf.classes[c].rep, classRates[c]
		rateOf[id] = r
		utilOf[id] = rep.Utilization(r, rbar)
		respOf[id] = rep.GenericResponseTime(d, r, rbar)
		if r > 0 {
			nnz += sf.classes[c].count
		}
	}
	res := &Result{
		Rates:           make([]float64, n),
		Phi:             phi,
		AvgResponseTime: sf.meanResponseTime(classRates, respOf),
		Utilizations:    make([]float64, n),
		ResponseTimes:   make([]float64, n),
		Discipline:      d,
		TotalRate:       lambda,
		Classes:         len(sf.classes),
	}
	var sp *SparseRates
	if sparseResult(n, nnz) {
		sp = &SparseRates{
			N:     n,
			Index: make([]int32, 0, nnz),
			Rate:  make([]float64, 0, nnz),
		}
		res.Sparse = sp
	}
	for i, c := range f.classOf {
		if up != nil && !up[i] {
			continue
		}
		r := rateOf[c]
		res.Rates[i] = r
		res.Utilizations[i] = utilOf[c]
		res.ResponseTimes[i] = respOf[c]
		if sp != nil && r > 0 {
			sp.Index = append(sp.Index, int32(i))
			sp.Rate = append(sp.Rate, r)
		}
	}
	return res
}

// sparseResult reports whether a result over n stations, nnz of them
// loaded, carries the compact form: a fleet large enough for the
// (station, rate) indirection to pay, and an allocation at most half
// full. Below that the dense Rates are the cheaper form.
func sparseResult(n, nnz int) bool { return n >= 64 && 2*nnz <= n }

// meanResponseTime totals T′ = Σ_c count_c·(λ′_c/λ′)·T′_c exactly over
// the classes (see result); respOf is indexed like the Fleet's classes.
// It is 0 for a zero allocation and +Inf when a loaded class has an
// infinite response time.
func (sf *sparseFleet) meanResponseTime(classRates, respOf []float64) float64 {
	lambda := sf.totalOf(classRates)
	if lambda == 0 { //bladelint:allow floateq -- exact zero total: nothing is loaded, and it would divide by zero below
		return 0
	}
	var sum numeric.ExactSum
	for c := range sf.classes {
		r := classRates[c]
		if r == 0 { //bladelint:allow floateq -- an exact zero rate contributes nothing
			continue
		}
		t := respOf[sf.classes[c].id]
		if math.IsInf(t, 1) {
			return math.Inf(1)
		}
		sum.AddMul(sf.classes[c].count, r/lambda*t)
	}
	return sum.Value()
}
