package core

import (
	"fmt"
	"math"
	"runtime"
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
// F(φ) is totalled in station order with the same compensated
// summation as the dense path, so the outer bisection takes the
// bit-identical φ trajectory and the whole solve is bit-identical to
// Optimize without Sparse (pinned by TestSparseMatchesDenseBitIdentical).

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

// sparseClass is one equivalence class of stations: the shared inner
// solver, how many stations it stands for, and the pruning key.
type sparseClass struct {
	rep    model.Server
	solver stationSolver
	count  int
	first  int32 // lowest member station index (deterministic tie-break)
	// mc0 is the idle marginal cost MC(0); +Inf when special load (or
	// the utilization cap) leaves no generic headroom, so such classes
	// sort to the end and are never solved.
	mc0 float64
}

// sparseFleet is the solve-time state of the sparse path: classes
// sorted by MC(0), the station→class map, and the per-probe scratch.
type sparseFleet struct {
	g      *model.Group
	opts   Options
	lambda float64
	eps    float64
	rhoCap float64

	classes []sparseClass
	classOf []int32   // station index → class index (post-sorting)
	scratch []float64 // per-class rates at the most recent probe
}

// newSparseFleet clusters the group into classes, builds one solver per
// class, and sorts classes by idle marginal cost for threshold pruning.
func newSparseFleet(g *model.Group, lambda float64, opts Options, eps, rhoCap float64) *sparseFleet {
	type ckey struct {
		size           int
		speed, special uint64
	}
	n := g.N()
	byKey := make(map[ckey]int32, 64)
	classes := make([]sparseClass, 0, 64)
	tmpOf := make([]int32, n)
	for i, s := range g.Servers {
		k := ckey{s.Size, math.Float64bits(s.Speed), math.Float64bits(s.SpecialRate)}
		ci, ok := byKey[k]
		if !ok {
			ci = int32(len(classes))
			byKey[k] = ci
			classes = append(classes, sparseClass{rep: s, first: int32(i)})
		}
		classes[ci].count++
		tmpOf[i] = ci
	}
	for ci := range classes {
		cl := &classes[ci]
		cl.solver = newStationSolver(cl.rep, g.TaskSize, lambda, opts.Discipline, eps, rhoCap)
		cl.mc0 = cl.solver.mc0
	}
	// Sort by MC(0) ascending (ties broken by first member index so the
	// ordering is deterministic); remap the station→class table through
	// the permutation.
	perm := make([]int32, len(classes))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ca, cb := &classes[perm[a]], &classes[perm[b]]
		if ca.mc0 < cb.mc0 {
			return true
		}
		if cb.mc0 < ca.mc0 {
			return false
		}
		return ca.first < cb.first
	})
	sorted := make([]sparseClass, len(classes))
	inv := make([]int32, len(classes))
	for newIdx, old := range perm {
		sorted[newIdx] = classes[old]
		inv[old] = int32(newIdx)
	}
	classOf := make([]int32, n)
	for i, ci := range tmpOf {
		classOf[i] = inv[ci]
	}
	return &sparseFleet{
		g: g, opts: opts, lambda: lambda, eps: eps, rhoCap: rhoCap,
		classes: sorted,
		classOf: classOf,
		scratch: make([]float64, len(sorted)),
	}
}

// solveClass runs one class's inner Find_λ′_i at φ.
func (sf *sparseFleet) solveClass(c int, phi float64) float64 {
	cl := &sf.classes[c]
	if sf.opts.PureBisection {
		return FindRateLimited(cl.rep, sf.g.TaskSize, sf.lambda, phi, sf.opts.Discipline, sf.eps, sf.rhoCap)
	}
	return cl.solver.findRate(phi)
}

// ratesAt evaluates F(φ) and F′(φ): the active prefix of classes
// (MC(0) ≤ φ) is solved — sequentially or chunked over goroutines — the
// pruned suffix is zeroed without any evaluation, and both totals are
// compensated in station order so they are bit-identical to the dense
// path's sums. A class with MC(0) = φ exactly carries no rate but still
// contributes its right-derivative to F′, so it is solved too.
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
	var sum, slope numeric.KahanSum
	for _, ci := range sf.classOf {
		sum.Add(rates[ci])
		if d := sf.classes[ci].solver.dlam; d > 0 {
			slope.Add(d)
		}
	}
	return sum.Value(), slope.Value()
}

// totalOf sums a class-rate vector over stations in station order with
// the same compensated accumulation as the dense path. Pruned classes
// contribute exact zeros, which leave a Kahan accumulator untouched, so
// the sum equals the dense path's bit for bit.
func (sf *sparseFleet) totalOf(classRates []float64) float64 {
	var sum numeric.KahanSum
	for _, ci := range sf.classOf {
		sum.Add(classRates[ci])
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
		if rho := sf.classes[c].rep.Utilization(r, sf.g.TaskSize); rho >= 1 {
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
		t := sf.classes[c].rep.GenericResponseTime(sf.opts.Discipline, r, sf.g.TaskSize)
		if math.IsInf(t, 1) {
			return math.Inf(1)
		}
		acc.Add(float64(sf.classes[c].count) * r / lambda * t)
	}
	return acc.Value()
}

// result freezes the solved class rates into a Result: always the
// compact (station, rate) form, plus the dense slices unless the caller
// opted out with CompactResult. ρ_i and T′_i are functions of a
// station's signature and rate alone, so each is evaluated once per
// class and fanned out to the members, and T′ is totalled from them by
// model.MeanResponseTime, as on the dense path: every field is
// bit-identical to the dense path's.
func (sf *sparseFleet) result(classRates []float64, phi float64) *Result {
	n := sf.g.N()
	nnz := 0
	for _, ci := range sf.classOf {
		if classRates[ci] > 0 {
			nnz++
		}
	}
	sp := &SparseRates{
		N:     n,
		Index: make([]int32, 0, nnz),
		Rate:  make([]float64, 0, nnz),
	}
	for i, ci := range sf.classOf {
		if r := classRates[ci]; r > 0 {
			sp.Index = append(sp.Index, int32(i))
			sp.Rate = append(sp.Rate, r)
		}
	}
	res := &Result{
		Phi:        phi,
		Discipline: sf.opts.Discipline,
		TotalRate:  sf.lambda,
		Sparse:     sp,
		Classes:    len(sf.classes),
	}
	if sf.opts.CompactResult {
		res.AvgResponseTime = sf.avgResponseTime(classRates)
		return res
	}
	classUtil := make([]float64, len(sf.classes))
	classResp := make([]float64, len(sf.classes))
	for c := range sf.classes {
		rep := sf.classes[c].rep
		classUtil[c] = rep.Utilization(classRates[c], sf.g.TaskSize)
		classResp[c] = rep.GenericResponseTime(sf.opts.Discipline, classRates[c], sf.g.TaskSize)
	}
	res.Rates = make([]float64, n)
	res.Utilizations = make([]float64, n)
	res.ResponseTimes = make([]float64, n)
	for i, ci := range sf.classOf {
		res.Rates[i] = classRates[ci]
		res.Utilizations[i] = classUtil[ci]
		res.ResponseTimes[i] = classResp[ci]
	}
	res.AvgResponseTime = model.MeanResponseTime(res.Rates, res.ResponseTimes)
	return res
}

// evaluator wires the class-indexed solve into the outer search. The
// entry points are the classes' MC(0), already ascending: one per class
// where the dense path lists every member, which the search cannot
// tell apart since it only looks up the nearest entry below φ. Σ λ′_max,i
// is accumulated in station order like the dense path's.
func (sf *sparseFleet) evaluator() phiEvaluator {
	var maxRate numeric.KahanSum
	for _, ci := range sf.classOf {
		if r := sf.classes[ci].solver.maxRate; r > 0 {
			maxRate.Add(r)
		}
	}
	entries := make([]float64, 0, len(sf.classes))
	for c := range sf.classes {
		if mc0 := sf.classes[c].mc0; !math.IsInf(mc0, 1) {
			entries = append(entries, mc0)
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

// optimizeSparse is Optimize's fleet-scale body: the identical outer
// search driven over class-indexed rate vectors. Validation and the
// utilization-cap headroom check already ran in Optimize. The segment
// repair interpolates per class and re-totals in station order, so it
// too stays bit-identical to the dense path.
func optimizeSparse(g *model.Group, lambda float64, opts Options, eps, rhoCap float64) (*Result, error) {
	fleet := newSparseFleet(g, lambda, opts, eps, rhoCap)
	sol, err := searchPhi(fleet.evaluator(), lambda, eps, opts)
	if err != nil {
		return nil, fmt.Errorf("core: failed to bracket φ: %w", err)
	}
	res := fleet.result(sol.Rates, sol.Phi)
	res.cost.evals = sol.Evals
	for c := range fleet.classes {
		res.cost.kernelCalls += fleet.classes[c].solver.calls
	}
	return res, nil
}
