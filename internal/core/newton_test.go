package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/queueing"
)

// TestNewtonMatchesBisection is the property test behind the Newton
// solvers: on randomized heterogeneous groups, under both disciplines,
// with and without a utilization cap, the accelerated Optimize agrees
// with the paper's literal Fig. 2 and Fig. 3 bisections (the oracle,
// Options.PureBisection) to ≤ 1e-9 on every rate and on T′.
func TestNewtonMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	const tol = 1e-9
	for trial := 0; trial < 40; trial++ {
		g := randomGroup(rng)
		d := queueing.FCFS
		if trial%2 == 1 {
			d = queueing.Priority
		}
		cap := 0.0
		if trial%3 == 0 {
			cap = 0.6 + 0.35*rng.Float64()
		}
		lambda := (0.05 + 0.9*rng.Float64()) * g.MaxGenericRate()
		newtonOpts := Options{Discipline: d, MaxUtilization: cap}
		oracleOpts := Options{Discipline: d, MaxUtilization: cap, PureBisection: true}
		fast, errFast := Optimize(g, lambda, newtonOpts)
		slow, errSlow := Optimize(g, lambda, oracleOpts)
		if (errFast == nil) != (errSlow == nil) {
			t.Fatalf("trial %d: error disagreement: newton=%v oracle=%v", trial, errFast, errSlow)
		}
		if errFast != nil {
			continue // both reject (e.g. cap leaves no headroom): agreement holds
		}
		scale := math.Max(1, lambda)
		if diff := math.Abs(fast.AvgResponseTime - slow.AvgResponseTime); diff > tol*math.Max(1, slow.AvgResponseTime) {
			t.Errorf("trial %d (d=%v cap=%g λ′=%g): T′ newton=%.15g oracle=%.15g diff=%g", trial, d, cap, lambda, fast.AvgResponseTime, slow.AvgResponseTime, diff)
		}
		for i := range fast.Rates {
			if diff := math.Abs(fast.Rates[i] - slow.Rates[i]); diff > tol*scale {
				t.Errorf("trial %d (d=%v cap=%g λ′=%g): rate[%d] newton=%.15g oracle=%.15g diff=%g", trial, d, cap, lambda, i, fast.Rates[i], slow.Rates[i], diff)
			}
		}
	}
}

// TestNewtonMatchesBisectionTotal is the same property for the
// fleet-wide objective of OptimizeTotal, whose marginal cost adds the
// special-task term ρ″ ∂T″/∂ρ.
func TestNewtonMatchesBisectionTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	const tol = 1e-9
	for trial := 0; trial < 20; trial++ {
		g := randomGroup(rng)
		d := queueing.FCFS
		if trial%2 == 1 {
			d = queueing.Priority
		}
		lambda := (0.1 + 0.8*rng.Float64()) * g.MaxGenericRate()
		fast, errFast := OptimizeTotal(g, lambda, Options{Discipline: d})
		slow, errSlow := OptimizeTotal(g, lambda, Options{Discipline: d, PureBisection: true})
		if (errFast == nil) != (errSlow == nil) {
			t.Fatalf("trial %d: error disagreement: newton=%v oracle=%v", trial, errFast, errSlow)
		}
		if errFast != nil {
			continue
		}
		scale := math.Max(1, lambda)
		if diff := math.Abs(fast.AvgAllTasks - slow.AvgAllTasks); diff > tol*math.Max(1, slow.AvgAllTasks) {
			t.Errorf("trial %d (d=%v λ′=%g): T newton=%.15g oracle=%.15g diff=%g", trial, d, lambda, fast.AvgAllTasks, slow.AvgAllTasks, diff)
		}
		for i := range fast.Rates {
			if diff := math.Abs(fast.Rates[i] - slow.Rates[i]); diff > tol*scale {
				t.Errorf("trial %d (d=%v λ′=%g): rate[%d] newton=%.15g oracle=%.15g diff=%g", trial, d, lambda, i, fast.Rates[i], slow.Rates[i], diff)
			}
		}
	}
}

// TestNewtonWarmStartConsistency re-solves the same problem through a
// solver whose warm-start state has been seeded by a different φ and
// checks the answer is within tolerance of a cold solve: prev is an
// accelerator, never part of the answer.
func TestNewtonWarmStartConsistency(t *testing.T) {
	s := model.Server{Size: 6, Speed: 2, SpecialRate: 1.5}
	ss := newStationSolver(s, 1, 40, queueing.Priority, 0, 1)
	cold := newStationSolver(s, 1, 40, queueing.Priority, 0, 1)
	// Seed ss.prev by solving at a sequence of unrelated multipliers.
	for _, phi := range []float64{0.9, 0.02, 0.4} {
		ss.findRate(phi)
	}
	for _, phi := range []float64{0.05, 0.1, 0.3, 0.7} {
		warm := ss.findRate(phi)
		want := cold.bisectFallback(phi)
		if diff := math.Abs(warm - want); diff > 2*cold.tol+1e-9 {
			t.Errorf("φ=%g: warm-started rate %.15g vs bisection %.15g (diff %g)", phi, warm, want, diff)
		}
	}
}

// TestNewtonTinyLambdaConserves pins the cold start at λ′ far below the
// Newton search's residual tolerance ε·Σλ′_max,i. At φ = min MC_i(0)
// no station carries load, so F = 0 and |F − λ′| ≤ tolF; that must not
// pass for convergence. Under both disciplines, the allocation must
// carry λ′ and its T′ must match the oracle's.
func TestNewtonTinyLambdaConserves(t *testing.T) {
	g := model.LiExample1Group()
	for _, lambda := range []float64{1e-300, 1e-20, 1e-12, 4e-11, 4.7e-11} {
		for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
			oracle, err := Optimize(g, lambda, Options{Discipline: d, PureBisection: true})
			if err != nil {
				t.Fatalf("λ′=%g %v: oracle: %v", lambda, d, err)
			}
			label := fmt.Sprintf("λ′=%g %v", lambda, d)
			res, err := Optimize(g, lambda, Options{Discipline: d})
			if err != nil {
				t.Errorf("%s: %v", label, err)
				continue
			}
			var sum numeric.KahanSum
			for _, r := range res.Rates {
				sum.Add(r)
			}
			if rel := math.Abs(sum.Value()-lambda) / lambda; !(rel <= 1e-12) {
				t.Errorf("%s: Σλ′_i = %g (relative error %g)", label, sum.Value(), rel)
			}
			if diff := math.Abs(res.AvgResponseTime - oracle.AvgResponseTime); !(diff <= 1e-9) {
				t.Errorf("%s: T′ = %.15g, oracle %.15g", label, res.AvgResponseTime, oracle.AvgResponseTime)
			}
		}
	}
}

// FuzzNewtonInnerSolve fuzzes the single-station inner solve: whatever
// (m, speed, special load, φ) the fuzzer invents, the Newton findRate
// and the paper's Fig. 2 bisection (FindRateLimited) must land within
// twice the shared interval tolerance of each other.
func FuzzNewtonInnerSolve(f *testing.F) {
	f.Add(4, 1.5, 0.3, 0.25, false)
	f.Add(1, 0.7, 0.0, 1.5, true)
	f.Add(16, 3.0, 0.8, 0.04, false)
	f.Add(7, 2.0, 0.0, 0.5, true)
	f.Fuzz(func(t *testing.T, m int, speed, specialFrac, phi float64, priority bool) {
		if m < 1 || m > 256 {
			t.Skip()
		}
		if !(speed > 0.01 && speed < 100) || !(phi > 1e-9 && phi < 1e9) {
			t.Skip()
		}
		if math.IsNaN(specialFrac) || specialFrac < 0 || specialFrac > 0.9 {
			t.Skip()
		}
		const rbar = 1.0
		s := model.Server{Size: m, Speed: speed}
		s.SpecialRate = specialFrac * s.Capacity(rbar)
		d := queueing.FCFS
		if priority {
			d = queueing.Priority
		}
		const lambdaTotal = 100.0
		ss := newStationSolver(s, rbar, lambdaTotal, d, 0, 1)
		got := ss.findRate(phi)
		want := FindRateLimited(s, rbar, lambdaTotal, phi, d, 0, 1)
		if diff := math.Abs(got - want); diff > 2*ss.tol+1e-9 {
			t.Errorf("m=%d speed=%g λ″=%g φ=%g d=%v: newton=%.15g bisection=%.15g diff=%g tol=%g",
				m, speed, s.SpecialRate, phi, d, got, want, diff, ss.tol)
		}
	})
}

// FuzzNewtonWarmSequence fuzzes the inner solve the way the outer
// search drives it: warm-started from the previous root. After a cold
// solve at φ it re-solves at φ and then at φ·(1+δ) and φ·(1−δ); every
// result must match the paper's Fig. 2 bisection within twice the
// shared interval tolerance. A repeat solve at an unchanged φ starts on
// the root and must cost at most 2 kernel calls (a warm start that
// landed on the root used to fall into ~40 bisection steps). The cost
// bound is waived where MC is flat at float precision across the
// tolerance around the root: there MC(l) = φ holds on a whole stretch
// and, like the paper's bisection, the solver must bisect for the
// stretch's left end.
func FuzzNewtonWarmSequence(f *testing.F) {
	f.Add(4, 1.5, 0.3, 0.25, 0.1, false)
	f.Add(1, 0.7, 0.0, 1.5, 0.01, true)
	f.Add(16, 3.0, 0.8, 0.04, 0.3, false)
	f.Add(7, 2.0, 0.0, 0.5, 1e-6, true)
	f.Add(14, 1.0, 0.3, 0.0644, 0.2, false)
	f.Fuzz(func(t *testing.T, m int, speed, specialFrac, phi, delta float64, priority bool) {
		if m < 1 || m > 256 {
			t.Skip()
		}
		if !(speed > 0.01 && speed < 100) || !(phi > 1e-9 && phi < 1e9) || !(delta > 0 && delta < 0.9) {
			t.Skip()
		}
		if math.IsNaN(specialFrac) || specialFrac < 0 || specialFrac > 0.9 {
			t.Skip()
		}
		const rbar, lambdaTotal = 1.0, 100.0
		s := model.Server{Size: m, Speed: speed}
		s.SpecialRate = specialFrac * s.Capacity(rbar)
		d := queueing.FCFS
		if priority {
			d = queueing.Priority
		}
		ss := newStationSolver(s, rbar, lambdaTotal, d, 0, 1)
		check := func(label string, phi float64) {
			got := ss.findRate(phi)
			want := FindRateLimited(s, rbar, lambdaTotal, phi, d, 0, 1)
			if diff := math.Abs(got - want); diff > 2*ss.tol+1e-9 {
				t.Errorf("%s: m=%d speed=%g λ″=%g φ=%g d=%v: newton=%.15g bisection=%.15g diff=%g tol=%g",
					label, m, speed, s.SpecialRate, phi, d, got, want, diff, ss.tol)
			}
		}
		check("cold", phi)
		before := ss.calls
		check("repeat", phi)
		calls := ss.calls - before
		root := FindRateLimited(s, rbar, lambdaTotal, phi, d, 0, 1)
		mcLo, _ := ss.costDeriv(math.Max(0, root-ss.tol))
		mcHi, _ := ss.costDeriv(math.Min(ss.capRate, root+ss.tol))
		if resolved := mcLo < phi && mcHi > phi; resolved && calls > 2 {
			t.Errorf("repeat solve at unchanged φ=%g (m=%d speed=%g λ″=%g d=%v) cost %d kernel calls, want ≤ 2",
				phi, m, speed, s.SpecialRate, d, calls)
		}
		check("up", phi*(1+delta))
		check("down", phi*(1-delta))
	})
}

// FuzzOptimizeNewton fuzzes the whole default solve against the oracle
// on random groups of up to 8 stations (sizes 1–16, speeds 0.2–3,
// special load up to 0.9 of capacity), at λ′ anywhere in (0.01, 0.999)
// of saturation, under both disciplines, with an optional utilization
// cap and an optional warm start. The default path and PureBisection
// must agree within 1e-9 on every rate and on T′, and an uncapped
// optimum must meet the KKT conditions to 1e-9.
func FuzzOptimizeNewton(f *testing.F) {
	f.Add(int64(1), 0.5, false, 0.0, 0.0)
	f.Add(int64(2), 0.95, true, 0.0, 1.3)
	f.Add(int64(3), 0.2, false, 0.9, 0.0)
	f.Add(int64(4), 0.3, true, 0.95, 0.4)
	f.Add(int64(5), 0.998, false, 0.0, 2.0)
	f.Fuzz(func(t *testing.T, seed int64, frac float64, priority bool, rhoCap, warm float64) {
		if !(frac > 0.01 && frac < 0.999) || !(rhoCap == 0 || (rhoCap > 0.1 && rhoCap < 1)) || !(warm == 0 || (warm > 0.05 && warm < 20)) { //bladelint:allow floateq -- zero is the fuzz input's "option unset" value
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		servers := make([]model.Server, 1+rng.Intn(8))
		for i := range servers {
			s := model.Server{Size: 1 + rng.Intn(16), Speed: 0.2 + 2.8*rng.Float64()}
			s.SpecialRate = 0.9 * rng.Float64() * s.Capacity(1)
			servers[i] = s
		}
		g := &model.Group{Servers: servers, TaskSize: 1}
		lambda := frac * g.MaxGenericRate()
		d := queueing.FCFS
		if priority {
			d = queueing.Priority
		}
		opts := Options{Discipline: d, MaxUtilization: rhoCap}
		if warm > 0 {
			cold, err := Optimize(g, lambda, opts)
			if err != nil {
				t.Skip() // the cap leaves no headroom: nothing to warm-start from
			}
			opts.WarmPhi = warm * cold.Phi
		}
		fast, errFast := Optimize(g, lambda, opts)
		opts.PureBisection = true
		slow, errSlow := Optimize(g, lambda, opts)
		if (errFast == nil) != (errSlow == nil) {
			t.Fatalf("error disagreement: newton=%v oracle=%v", errFast, errSlow)
		}
		if errFast != nil {
			return
		}
		const tol = 1e-9
		label := fmt.Sprintf("seed=%d n=%d frac=%g d=%v cap=%g warm=%g", seed, g.N(), frac, d, rhoCap, warm)
		if diff := math.Abs(fast.AvgResponseTime - slow.AvgResponseTime); diff > tol*math.Max(1, slow.AvgResponseTime) {
			t.Errorf("%s: T′ newton=%.15g oracle=%.15g diff=%g", label, fast.AvgResponseTime, slow.AvgResponseTime, diff)
		}
		for i := range fast.Rates {
			if diff := math.Abs(fast.Rates[i] - slow.Rates[i]); diff > tol*math.Max(1, lambda) {
				t.Errorf("%s: rate[%d] newton=%.15g oracle=%.15g diff=%g", label, i, fast.Rates[i], slow.Rates[i], diff)
			}
		}
		if rhoCap == 0 { //bladelint:allow floateq -- zero is the fuzz input's "option unset" value
			kkt, err := KKTResidual(g, d, fast.Rates)
			if err != nil {
				t.Fatal(err)
			}
			if kkt > tol {
				t.Errorf("%s: KKT residual %g", label, kkt)
			}
		}
	})
}

// TestNewtonDriftChainCost pins what a drift re-solve costs. On the
// paper's Example 1, λ′ steps by ×1.2 from 0.15 of saturation up to
// 0.86 and back down by ×0.8, each solve warm-started from the last φ
// as the serving daemon does. The mean solve must take at most 12 F(φ)
// evaluations and 600 kernel calls, and a cold solve at any of these
// rates at most 16 evaluations; the paper's doubling and bisection take
// 40–78 evaluations and about 4,500 kernel calls. Every warm result
// must also agree with the oracle within 1e-9.
func TestNewtonDriftChainCost(t *testing.T) {
	g := model.LiExample1Group()
	sat := g.MaxGenericRate()
	var fracs []float64
	for f := 0.15; f <= 0.86; f *= 1.2 {
		fracs = append(fracs, f)
	}
	for f := fracs[len(fracs)-1] * 0.8; f >= 0.15; f *= 0.8 {
		fracs = append(fracs, f)
	}
	for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
		var evals, calls int
		phi := 0.0
		for _, frac := range fracs {
			lambda := frac * sat
			warm, err := Optimize(g, lambda, Options{Discipline: d, WarmPhi: phi})
			if err != nil {
				t.Fatal(err)
			}
			evals += warm.cost.evals
			calls += warm.cost.kernelCalls
			phi = warm.Phi
			oracle, err := Optimize(g, lambda, Options{Discipline: d, PureBisection: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := range warm.Rates {
				if diff := math.Abs(warm.Rates[i] - oracle.Rates[i]); diff > 1e-9*lambda {
					t.Errorf("%v at %.3f of saturation: rate[%d] warm %.15g oracle %.15g", d, frac, i, warm.Rates[i], oracle.Rates[i])
				}
			}
			cold, err := Optimize(g, lambda, Options{Discipline: d})
			if err != nil {
				t.Fatal(err)
			}
			if cold.cost.evals > 16 {
				t.Errorf("%v at %.3f of saturation: cold solve took %d evaluations, want ≤ 16", d, frac, cold.cost.evals)
			}
		}
		meanEvals := float64(evals) / float64(len(fracs))
		meanCalls := float64(calls) / float64(len(fracs))
		t.Logf("%v: %d warm solves, mean %.1f evaluations and %.0f kernel calls", d, len(fracs), meanEvals, meanCalls)
		if meanEvals > 12 || meanCalls > 600 {
			t.Errorf("%v: warm re-solves average %.1f evaluations and %.0f kernel calls, want ≤ 12 and ≤ 600", d, meanEvals, meanCalls)
		}
	}
}
