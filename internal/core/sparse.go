package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/model"
	"repro/internal/numeric"
)

// This file implements the fleet-scale sparse solve path behind
// Options.Sparse. Two structural facts make it exact, not approximate
// (DESIGN §14):
//
//  1. Class symmetry. Stations with an identical (size, speed,
//     special-rate) signature have identical inner problems, and the
//     inner solve is a deterministic function of the φ sequence alone,
//     so every member of a class receives the bit-identical rate the
//     dense path would give it. One stationSolver per class therefore
//     replaces count-many identical solves per probe.
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
// float as the dense path's exact sum over stations: the outer search
// takes the bit-identical φ trajectory and the whole solve is
// bit-identical to the dense one (pinned by
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

// Sum returns the compensated total Σλ′_i of the allocation.
func (s *SparseRates) Sum() float64 {
	var sum numeric.KahanSum
	for _, r := range s.Rate {
		sum.Add(r)
	}
	return sum.Value()
}

// Dense materializes the allocation as an N-wide rate slice.
func (s *SparseRates) Dense() []float64 {
	out := make([]float64, s.N)
	for k, i := range s.Index {
		out[i] = s.Rate[k]
	}
	return out
}

// ForEach calls fn for every loaded station in ascending order.
func (s *SparseRates) ForEach(fn func(station int, rate float64)) {
	for k, i := range s.Index {
		fn(int(i), s.Rate[k])
	}
}

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

// sparseFleet is the solve-time state of the sparse path: the classes
// with survivors sorted by MC(0), and the per-probe scratch.
type sparseFleet struct {
	f      *Fleet
	opts   Options
	lambda float64
	eps    float64
	rhoCap float64

	classes []sparseClass
	scratch []float64 // per-class rates at the most recent probe
}

// newSparseFleet builds one solver per class with survivors (counts,
// indexed like the Fleet's classes) and sorts the classes by idle
// marginal cost for threshold pruning. The solvers depend on λ′, so
// they are built per solve; the clustering is the Fleet's.
func newSparseFleet(f *Fleet, counts []int, lambda float64, opts Options, eps, rhoCap float64) *sparseFleet {
	classes := make([]sparseClass, 0, len(f.classes))
	for c := range f.classes {
		if counts[c] == 0 {
			continue
		}
		rep := f.classes[c].rep
		cl := sparseClass{rep: rep, count: counts[c], id: int32(c)}
		cl.solver = newStationSolver(rep, f.g.TaskSize, lambda, opts.Discipline, eps, rhoCap)
		cl.mc0 = cl.solver.mc0
		classes = append(classes, cl)
	}
	slices.SortFunc(classes, func(a, b sparseClass) int {
		if c := cmp.Compare(a.mc0, b.mc0); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	return &sparseFleet{
		f: f, opts: opts, lambda: lambda, eps: eps, rhoCap: rhoCap,
		classes: classes,
		scratch: make([]float64, len(classes)),
	}
}

// solveClass runs one class's inner Find_λ′_i at φ.
func (sf *sparseFleet) solveClass(c int, phi float64) float64 {
	cl := &sf.classes[c]
	if sf.opts.PureBisection {
		return FindRateLimited(cl.rep, sf.f.g.TaskSize, sf.lambda, phi, sf.opts.Discipline, sf.eps, sf.rhoCap)
	}
	return cl.solver.findRate(phi)
}

// ratesAt evaluates F(φ) and F′(φ): the active prefix of classes
// (MC(0) ≤ φ) is solved — sequentially or chunked over goroutines — the
// pruned suffix is zeroed without any evaluation, and both totals are
// summed exactly over the active classes, count × rate, so they are
// bit-identical to the dense path's sums over stations. A class with
// MC(0) = φ exactly carries no rate but still contributes its
// right-derivative to F′, so it is solved too.
func (sf *sparseFleet) ratesAt(phi float64) (float64, float64) {
	active := sort.Search(len(sf.classes), func(i int) bool { return sf.classes[i].mc0 > phi })
	rates := sf.scratch
	for c := active; c < len(rates); c++ {
		rates[c] = 0
		sf.classes[c].solver.dlam = 0
	}
	workers := runtime.GOMAXPROCS(0)
	if sf.opts.Parallel && active > 1 && workers > 1 {
		// Mirrors the dense path's chunking: each class solver is owned
		// by exactly one chunk per probe and its warm-start evolution
		// depends only on its own φ sequence, so parallel and
		// sequential runs stay bit-identical.
		if workers > active {
			workers = active
		}
		var wg sync.WaitGroup
		chunk := (active + workers - 1) / workers
		for lo := 0; lo < active; lo += chunk {
			hi := lo + chunk
			if hi > active {
				hi = active
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for c := lo; c < hi; c++ {
					rates[c] = sf.solveClass(c, phi)
				}
			}(lo, hi)
		}
		wg.Wait()
	} else {
		for c := 0; c < active; c++ {
			rates[c] = sf.solveClass(c, phi)
		}
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
// same float as the dense path's exact sum over stations.
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

// avgResponseTime computes T′ = Σ (λ′_i/λ′)·T′_i per class — the
// compact-result path that never touches an n-wide slice.
func (sf *sparseFleet) avgResponseTime(classRates []float64) float64 {
	var total numeric.KahanSum
	for c := range sf.classes {
		total.Add(float64(sf.classes[c].count) * classRates[c])
	}
	lambda := total.Value()
	if lambda == 0 { //bladelint:allow floateq -- exact zero total: no class carries load, T′ is 0 by convention
		return 0
	}
	var acc numeric.KahanSum
	for c := range sf.classes {
		r := classRates[c]
		if r == 0 { //bladelint:allow floateq -- exact zero rate contributes nothing and would divide by zero below
			continue
		}
		t := sf.classes[c].rep.GenericResponseTime(sf.opts.Discipline, r, sf.f.g.TaskSize)
		if math.IsInf(t, 1) {
			return math.Inf(1)
		}
		acc.Add(float64(sf.classes[c].count) * r / lambda * t)
	}
	return acc.Value()
}

// result freezes the solved class rates into a Result: always the
// compact (station, rate) form over fleet station indices, plus the
// dense slices unless the caller opted out with CompactResult. ρ_i and
// T′_i are functions of a station's signature and rate alone, so each
// is evaluated once per class and fanned out to the surviving members;
// a down station (up[i] false) keeps zero rate, utilization and
// response time. T′ is totalled from the fanned-out slices by
// model.MeanResponseTime, as on the dense path, so every field is
// bit-identical to the dense path's.
func (sf *sparseFleet) result(classRates []float64, phi float64, up []bool) *Result {
	f := sf.f
	n := f.N()
	// The rate of each Fleet class; zero for a class without survivors.
	rateOf := make([]float64, len(f.classes))
	nnz := 0
	for c := range sf.classes {
		rateOf[sf.classes[c].id] = classRates[c]
		if classRates[c] > 0 {
			nnz += sf.classes[c].count
		}
	}
	sp := &SparseRates{
		N:     n,
		Index: make([]int32, 0, nnz),
		Rate:  make([]float64, 0, nnz),
	}
	res := &Result{
		Phi:        phi,
		Discipline: sf.opts.Discipline,
		TotalRate:  sf.lambda,
		Sparse:     sp,
		Classes:    len(sf.classes),
	}
	if sf.opts.CompactResult {
		for i, c := range f.classOf {
			if r := rateOf[c]; r > 0 && (up == nil || up[i]) {
				sp.Index = append(sp.Index, int32(i))
				sp.Rate = append(sp.Rate, r)
			}
		}
		res.AvgResponseTime = sf.avgResponseTime(classRates)
		return res
	}
	utilOf := make([]float64, len(f.classes))
	respOf := make([]float64, len(f.classes))
	for c := range sf.classes {
		id, rep := sf.classes[c].id, sf.classes[c].rep
		utilOf[id] = rep.Utilization(classRates[c], f.g.TaskSize)
		respOf[id] = rep.GenericResponseTime(sf.opts.Discipline, classRates[c], f.g.TaskSize)
	}
	res.Rates = make([]float64, n)
	res.Utilizations = make([]float64, n)
	res.ResponseTimes = make([]float64, n)
	for i, c := range f.classOf {
		if up != nil && !up[i] {
			continue
		}
		r := rateOf[c]
		res.Rates[i] = r
		res.Utilizations[i] = utilOf[c]
		res.ResponseTimes[i] = respOf[c]
		if r > 0 {
			sp.Index = append(sp.Index, int32(i))
			sp.Rate = append(sp.Rate, r)
		}
	}
	res.AvgResponseTime = model.MeanResponseTime(res.Rates, res.ResponseTimes)
	return res
}

// evaluator wires the class-indexed solve into the outer search. The
// entry points are the classes' MC(0), already ascending: one per class
// where the dense path lists every member, which the search cannot
// tell apart since it only looks up the nearest entry below φ. Σ λ′_max,i
// is summed exactly, count × λ′_max per class.
func (sf *sparseFleet) evaluator() phiEvaluator {
	var maxRate numeric.ExactSum
	entries := make([]float64, 0, len(sf.classes))
	for c := range sf.classes {
		cl := &sf.classes[c]
		if r := cl.solver.maxRate; r > 0 {
			maxRate.AddMul(cl.count, r)
		}
		if !math.IsInf(cl.mc0, 1) {
			entries = append(entries, cl.mc0)
		}
	}
	return phiEvaluator{
		eval:     sf.ratesAt,
		scratch:  sf.scratch,
		total:    sf.totalOf,
		feasible: sf.feasible,
		entries:  entries,
		maxRate:  maxRate.Value(),
	}
}

// solveSparse is the fleet-scale body of every solve: the identical
// outer search driven over class-indexed rate vectors, for the classes
// with survivors (counts). Validation and the headroom checks already
// ran in solve. The segment repair interpolates per class and re-totals
// exactly, so it too stays bit-identical to the dense path.
func (f *Fleet) solveSparse(lambda float64, up []bool, counts []int, opts Options, eps, rhoCap float64) (*Result, error) {
	sf := newSparseFleet(f, counts, lambda, opts, eps, rhoCap)
	sol, err := searchPhi(sf.evaluator(), lambda, eps, opts)
	if err != nil {
		return nil, fmt.Errorf("core: failed to bracket φ: %w", err)
	}
	res := sf.result(sol.Rates, sol.Phi, up)
	res.cost.evals = sol.Evals
	for c := range sf.classes {
		res.cost.kernelCalls += sf.classes[c].solver.calls
	}
	return res, nil
}
