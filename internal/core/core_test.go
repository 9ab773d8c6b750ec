package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/queueing"
)

func TestOptimizeValidation(t *testing.T) {
	g := model.LiExample1Group()
	if _, err := Optimize(g, 0, Options{}); err == nil {
		t.Error("λ′=0 should fail")
	}
	if _, err := Optimize(g, -1, Options{}); err == nil {
		t.Error("negative λ′ should fail")
	}
	if _, err := Optimize(g, math.NaN(), Options{}); err == nil {
		t.Error("NaN λ′ should fail")
	}
	// A subnormal λ′ overflows every marginal cost's 1/λ′ factor: an
	// error, never a panic.
	if _, err := Optimize(g, 5e-324, Options{}); err == nil {
		t.Error("subnormal λ′ should fail")
	}
	if _, err := Optimize(g, g.MaxGenericRate(), Options{}); err == nil {
		t.Error("λ′ = λ′_max should fail")
	}
	if _, err := Optimize(g, 2*g.MaxGenericRate(), Options{}); err == nil {
		t.Error("λ′ > λ′_max should fail")
	}
	if _, err := Optimize(g, 1, Options{Discipline: queueing.Discipline(7)}); err == nil {
		t.Error("unknown discipline should fail")
	}
	bad := &model.Group{TaskSize: 1}
	if _, err := Optimize(bad, 1, Options{}); err == nil {
		t.Error("invalid group should fail")
	}
}

func TestOptimizeConservation(t *testing.T) {
	g := model.LiExample1Group()
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
			lambda := frac * g.MaxGenericRate()
			res, err := Optimize(g, lambda, Options{Discipline: d})
			if err != nil {
				t.Fatalf("frac=%g %v: %v", frac, d, err)
			}
			if got := numeric.Sum(res.Rates); math.Abs(got-lambda) > 1e-9 {
				t.Errorf("frac=%g %v: Σλ′_i = %.12g, want %.12g", frac, d, got, lambda)
			}
			if err := g.Feasible(res.Rates); err != nil {
				t.Errorf("frac=%g %v: infeasible: %v", frac, d, err)
			}
		}
	}
}

func TestOptimizeKKT(t *testing.T) {
	g := model.LiExample1Group()
	for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
		res, err := Optimize(g, 0.6*g.MaxGenericRate(), Options{Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		resid, err := KKTResidual(g, d, res.Rates)
		if err != nil {
			t.Fatal(err)
		}
		if resid > 1e-7 {
			t.Errorf("%v: KKT residual %g too large", d, resid)
		}
	}
}

func TestOptimizeNoProfitableDeviation(t *testing.T) {
	// Move mass δ from server i to server j: T′ must not decrease.
	g := model.LiExample1Group()
	for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
		res, err := Optimize(g, 0.5*g.MaxGenericRate(), Options{Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		base := res.AvgResponseTime
		const delta = 1e-3
		for i := 0; i < g.N(); i++ {
			for j := 0; j < g.N(); j++ {
				if i == j || res.Rates[i] < delta {
					continue
				}
				pert := append([]float64(nil), res.Rates...)
				pert[i] -= delta
				pert[j] += delta
				if g.Feasible(pert) != nil {
					continue
				}
				if got := g.AverageResponseTime(d, pert); got < base-1e-12 {
					t.Errorf("%v: moving %g from %d to %d improves T′: %.12g < %.12g",
						d, delta, i+1, j+1, got, base)
				}
			}
		}
	}
}

func TestOptimizeRandomPerturbationsNeverImprove(t *testing.T) {
	g := model.LiExample1Group()
	rng := rand.New(rand.NewSource(42))
	res, err := Optimize(g, 0.65*g.MaxGenericRate(), Options{Discipline: queueing.FCFS})
	if err != nil {
		t.Fatal(err)
	}
	base := res.AvgResponseTime
	for trial := 0; trial < 200; trial++ {
		pert := append([]float64(nil), res.Rates...)
		// Random zero-sum perturbation.
		i, j := rng.Intn(g.N()), rng.Intn(g.N())
		if i == j {
			continue
		}
		d := rng.Float64() * 0.05 * res.Rates[i]
		pert[i] -= d
		pert[j] += d
		if g.Feasible(pert) != nil {
			continue
		}
		if got := g.AverageResponseTime(queueing.FCFS, pert); got < base-1e-12 {
			t.Fatalf("trial %d: perturbation improved T′ from %.12g to %.12g", trial, base, got)
		}
	}
}

func TestOptimizeLowLoadDropsSlowServers(t *testing.T) {
	// With a tiny λ′ and one much faster server, slow servers should
	// receive zero (inactive-set handling).
	g := &model.Group{
		Servers: []model.Server{
			{Size: 4, Speed: 10.0, SpecialRate: 0},
			{Size: 1, Speed: 0.1, SpecialRate: 0},
		},
		TaskSize: 1,
	}
	res, err := Optimize(g, 0.05, Options{Discipline: queueing.FCFS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rates[1] > 1e-6 {
		t.Fatalf("slow server got λ′=%g, want ~0 (rates=%v)", res.Rates[1], res.Rates)
	}
	if math.Abs(numeric.Sum(res.Rates)-0.05) > 1e-9 {
		t.Fatalf("conservation broken: %v", res.Rates)
	}
}

func TestOptimizeHighLoadNearSaturation(t *testing.T) {
	g := model.LiExample1Group()
	lambda := 0.99 * g.MaxGenericRate()
	for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
		res, err := Optimize(g, lambda, Options{Discipline: d})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if math.IsInf(res.AvgResponseTime, 1) || math.IsNaN(res.AvgResponseTime) {
			t.Fatalf("%v: T′ = %g", d, res.AvgResponseTime)
		}
		for i, rho := range res.Utilizations {
			if rho >= 1 {
				t.Errorf("%v: server %d unstable (ρ=%g)", d, i+1, rho)
			}
		}
	}
}

func TestOptimizeSingleServer(t *testing.T) {
	// n = 1: the entire stream goes to the only server.
	g := &model.Group{
		Servers:  []model.Server{{Size: 3, Speed: 2, SpecialRate: 1}},
		TaskSize: 1,
	}
	res, err := Optimize(g, 2.5, Options{Discipline: queueing.FCFS})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Rates[0]-2.5) > 1e-9 {
		t.Fatalf("rate = %g, want 2.5", res.Rates[0])
	}
	want := g.Servers[0].GenericResponseTime(queueing.FCFS, 2.5, 1)
	if !numeric.WithinTol(res.AvgResponseTime, want, 1e-9, 1e-9) {
		t.Fatalf("T′ = %.12g, want %.12g", res.AvgResponseTime, want)
	}
}

func TestOptimizeHomogeneousSymmetry(t *testing.T) {
	// Identical servers must receive identical rates.
	servers := make([]model.Server, 5)
	for i := range servers {
		servers[i] = model.Server{Size: 4, Speed: 1.3, SpecialRate: 1.0}
	}
	g := &model.Group{Servers: servers, TaskSize: 1}
	for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
		res, err := Optimize(g, 0.5*g.MaxGenericRate(), Options{Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 5; i++ {
			if math.Abs(res.Rates[i]-res.Rates[0]) > 1e-7 {
				t.Errorf("%v: asymmetric rates %v", d, res.Rates)
			}
		}
	}
}

func TestOptimizeMonotoneInLambda(t *testing.T) {
	// T′ is increasing in the total rate λ′.
	g := model.LiExample1Group()
	prev := 0.0
	for _, frac := range []float64{0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95} {
		res, err := Optimize(g, frac*g.MaxGenericRate(), Options{Discipline: queueing.FCFS})
		if err != nil {
			t.Fatal(err)
		}
		if res.AvgResponseTime <= prev {
			t.Fatalf("T′ not increasing at frac=%g: %g after %g", frac, res.AvgResponseTime, prev)
		}
		prev = res.AvgResponseTime
	}
}

func TestOptimizeBeatsGoldenSectionOnTwoServers(t *testing.T) {
	// Independent check with a solver that shares no code with the
	// Lagrange machinery: for n = 2 the problem is one-dimensional in
	// λ′_1; golden-section search must find the same optimum.
	g := &model.Group{
		Servers: []model.Server{
			{Size: 3, Speed: 1.5, SpecialRate: 1.2},
			{Size: 5, Speed: 0.9, SpecialRate: 1.0},
		},
		TaskSize: 1,
	}
	lambda := 0.6 * g.MaxGenericRate()
	for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
		res, err := Optimize(g, lambda, Options{Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		obj := func(l1 float64) float64 {
			l2 := lambda - l1
			if l2 < 0 {
				return math.Inf(1)
			}
			return g.AverageResponseTime(d, []float64{l1, l2})
		}
		lo := math.Max(0, lambda-g.Servers[1].MaxGenericRate(1)*(1-1e-9))
		hi := math.Min(lambda, g.Servers[0].MaxGenericRate(1)*(1-1e-9))
		l1, err := numeric.GoldenSection(obj, lo, hi, 1e-11)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(l1-res.Rates[0]) > 1e-5 {
			t.Errorf("%v: golden-section λ′_1=%.9g vs optimizer %.9g", d, l1, res.Rates[0])
		}
		if math.Abs(obj(l1)-res.AvgResponseTime) > 1e-9 {
			t.Errorf("%v: golden-section T′=%.12g vs optimizer %.12g", d, obj(l1), res.AvgResponseTime)
		}
	}
}

func TestFindRateEdgeCases(t *testing.T) {
	s := model.Server{Size: 2, Speed: 1, SpecialRate: 0.5}
	// φ below the idle marginal cost → 0.
	if got := FindRate(s, 1, 10, 1e-9, queueing.FCFS, 1e-10); got != 0 {
		t.Errorf("tiny φ: rate = %g, want 0", got)
	}
	// Huge φ → capped near saturation.
	got := FindRate(s, 1, 10, 1e12, queueing.FCFS, 1e-10)
	if got < 1.49 || got >= 1.5 {
		t.Errorf("huge φ: rate = %g, want just under 1.5", got)
	}
	// Saturated-by-specials server gets nothing.
	sat := model.Server{Size: 1, Speed: 1, SpecialRate: 1}
	if got := FindRate(sat, 1, 10, 1, queueing.FCFS, 1e-10); got != 0 {
		t.Errorf("saturated server: rate = %g, want 0", got)
	}
	// Non-positive eps falls back to default.
	if got := FindRate(s, 1, 10, 1e12, queueing.FCFS, 0); got < 1.4 {
		t.Errorf("default eps: rate = %g", got)
	}
}

func TestFindRateMonotoneInPhi(t *testing.T) {
	s := model.Server{Size: 6, Speed: 1.2, SpecialRate: 2.0}
	prev := -1.0
	for _, phi := range []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 50} {
		r := FindRate(s, 1, 10, phi, queueing.FCFS, 1e-11)
		if r < prev-1e-9 {
			t.Fatalf("rate not monotone in φ: %g after %g at φ=%g", r, prev, phi)
		}
		prev = r
	}
}

func TestKKTResidualErrors(t *testing.T) {
	g := model.LiExample1Group()
	if _, err := KKTResidual(g, queueing.FCFS, make([]float64, 7)); err == nil {
		t.Error("zero allocation should error")
	}
	if _, err := KKTResidual(g, queueing.FCFS, []float64{1}); err == nil {
		t.Error("wrong length should error")
	}
}

func TestKKTResidualDetectsBadAllocation(t *testing.T) {
	g := model.LiExample1Group()
	lambda := 0.5 * g.MaxGenericRate()
	// Deliberately lopsided: everything proportional to size only.
	rates := make([]float64, 7)
	tot := 0.0
	for _, s := range g.Servers {
		tot += float64(s.Size)
	}
	for i, s := range g.Servers {
		rates[i] = lambda * float64(s.Size) / tot
	}
	resid, err := KKTResidual(g, queueing.FCFS, rates)
	if err != nil {
		t.Fatal(err)
	}
	if resid < 1e-3 {
		t.Fatalf("lopsided allocation has residual %g, expected clearly nonzero", resid)
	}
}

func TestOptionsEpsilonDefault(t *testing.T) {
	if (Options{}).epsilon() != DefaultEpsilon {
		t.Fatal("zero epsilon should default")
	}
	if (Options{Epsilon: 1e-6}).epsilon() != 1e-6 {
		t.Fatal("explicit epsilon should pass through")
	}
}

func TestOptimizeCoarseEpsilonStillConserves(t *testing.T) {
	g := model.LiExample1Group()
	lambda := 0.5 * g.MaxGenericRate()
	res, err := Optimize(g, lambda, Options{Discipline: queueing.FCFS, Epsilon: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(numeric.Sum(res.Rates)-lambda) > 1e-9 {
		t.Fatalf("rescaling should restore conservation: Σ=%g", numeric.Sum(res.Rates))
	}
	// Coarse run should still be close to the pinned value.
	if math.Abs(res.AvgResponseTime-table1T) > 1e-4 {
		t.Fatalf("coarse T′ = %g too far from %g", res.AvgResponseTime, table1T)
	}
}

func TestOptimizeNoRescaleResidual(t *testing.T) {
	g := model.LiExample1Group()
	lambda := 0.5 * g.MaxGenericRate()
	res, err := Optimize(g, lambda, Options{Discipline: queueing.FCFS, NoRescale: true})
	if err != nil {
		t.Fatal(err)
	}
	// The raw algorithm's residual is of order ε, not zero, but small.
	if math.Abs(numeric.Sum(res.Rates)-lambda) > 1e-6 {
		t.Fatalf("raw residual too large: %g", numeric.Sum(res.Rates)-lambda)
	}
}
