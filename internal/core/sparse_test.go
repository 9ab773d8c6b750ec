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

// clusteredFleet builds an n-station fleet whose signatures are drawn
// from a fixed pool of distinct (size, speed, special-rate) classes, so
// the sparse path has real clustering to exploit.
func clusteredFleet(n, pool int) *model.Group {
	servers := make([]model.Server, n)
	for i := range servers {
		k := i % pool
		s := model.Server{Size: 2 + 2*(k%8), Speed: 1.7 - 0.1*float64(k%7)}
		s.SpecialRate = 0.3 * float64(s.Size) * s.Speed
		servers[i] = s
	}
	return &model.Group{Servers: servers, TaskSize: 1.0}
}

// randomFleet builds a heterogeneous fleet with signatures drawn from a
// seeded random pool — mixed sizes, speeds, and special loads, some
// classes repeated many times and some singletons.
func randomFleet(rng *rand.Rand, n int) *model.Group {
	pool := 8 + rng.Intn(40)
	type sig struct {
		size            int
		speed, specFrac float64
	}
	sigs := make([]sig, pool)
	for k := range sigs {
		sigs[k] = sig{
			size:     1 + rng.Intn(16),
			speed:    0.5 + 2.0*rng.Float64(),
			specFrac: 0.6 * rng.Float64(),
		}
	}
	servers := make([]model.Server, n)
	for i := range servers {
		sg := sigs[rng.Intn(pool)]
		s := model.Server{Size: sg.size, Speed: sg.speed}
		s.SpecialRate = sg.specFrac * s.Capacity(1.0)
		servers[i] = s
	}
	return &model.Group{Servers: servers, TaskSize: 1.0}
}

func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// TestSparseMatchesDenseBitIdentical pins the central claim of the
// sparse path: class clustering plus MC(0) pruning is a pure
// re-bracketing of identical arithmetic, so every output — rates, φ,
// response times, utilizations — matches the dense solver bit for bit.
func TestSparseMatchesDenseBitIdentical(t *testing.T) {
	groups := map[string]*model.Group{
		"liExample1": model.LiExample1Group(),
		"n64":        clusteredFleet(64, 12),
		"n512":       clusteredFleet(512, 24),
	}
	for name, g := range groups {
		for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
			for _, cap := range []float64{0, 0.9} {
				t.Run(fmt.Sprintf("%s/%v/cap=%g", name, d, cap), func(t *testing.T) {
					lambda := 0.4 * g.MaxGenericRate()
					opts := Options{Discipline: d, MaxUtilization: cap}
					dense, err := Optimize(g, lambda, opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.Sparse = true
					sparse, err := Optimize(g, lambda, opts)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(dense.Phi) != math.Float64bits(sparse.Phi) {
						t.Errorf("φ differs: dense %x sparse %x", math.Float64bits(dense.Phi), math.Float64bits(sparse.Phi))
					}
					if i, ok := sameBits(dense.Rates, sparse.Rates); !ok {
						t.Errorf("rates differ at station %d: dense %x sparse %x",
							i, math.Float64bits(dense.Rates[i]), math.Float64bits(sparse.Rates[i]))
					}
					if math.Float64bits(dense.AvgResponseTime) != math.Float64bits(sparse.AvgResponseTime) {
						t.Errorf("T′ differs: dense %g sparse %g", dense.AvgResponseTime, sparse.AvgResponseTime)
					}
					if i, ok := sameBits(dense.Utilizations, sparse.Utilizations); !ok {
						t.Errorf("utilizations differ at station %d", i)
					}
					if i, ok := sameBits(dense.ResponseTimes, sparse.ResponseTimes); !ok {
						t.Errorf("response times differ at station %d", i)
					}
					if sparse.Sparse == nil {
						t.Fatal("sparse result missing compact allocation")
					}
					if sparse.Classes <= 0 || sparse.Classes > g.N() {
						t.Errorf("implausible class count %d for n=%d", sparse.Classes, g.N())
					}
					// The compact form must agree with the dense vector
					// exactly: same nonzero stations, same bits.
					fromSparse := sparse.Sparse.Dense()
					if i, ok := sameBits(dense.Rates, fromSparse); !ok {
						t.Errorf("compact allocation differs at station %d", i)
					}
				})
			}
		}
	}
}

// TestSparsePureBisection covers the Sparse × PureBisection combination:
// the inner solve goes through FindRateLimited on the class
// representative, which must still match the dense pure-bisection run.
func TestSparsePureBisection(t *testing.T) {
	g := clusteredFleet(64, 12)
	lambda := 0.4 * g.MaxGenericRate()
	dense, err := Optimize(g, lambda, Options{PureBisection: true})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Optimize(g, lambda, Options{PureBisection: true, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := sameBits(dense.Rates, sparse.Rates); !ok {
		t.Errorf("rates differ at station %d", i)
	}
}

// TestSparseParallelMatchesSequential pins determinism of the chunked
// class solve: goroutine count must not leak into the arithmetic.
func TestSparseParallelMatchesSequential(t *testing.T) {
	g := clusteredFleet(512, 24)
	lambda := 0.5 * g.MaxGenericRate()
	seq, err := Optimize(g, lambda, Options{Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Optimize(g, lambda, Options{Sparse: true, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := sameBits(seq.Rates, par.Rates); !ok {
		t.Errorf("parallel run diverged at station %d", i)
	}
}

// TestSparseCompactResult checks the fleet-scale result form: no dense
// slices at all, a compact allocation that sums to λ′, and a T′ within
// float dust of the dense computation (it is regrouped by class, so
// bit-identity is not promised — only ≤1e-12 relative error).
func TestSparseCompactResult(t *testing.T) {
	g := clusteredFleet(512, 24)
	lambda := 0.4 * g.MaxGenericRate()
	for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
		dense, err := Optimize(g, lambda, Options{Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		compact, err := Optimize(g, lambda, Options{Discipline: d, Sparse: true, CompactResult: true})
		if err != nil {
			t.Fatal(err)
		}
		if compact.Rates != nil || compact.Utilizations != nil || compact.ResponseTimes != nil {
			t.Error("compact result materialized dense slices")
		}
		if compact.Sparse == nil {
			t.Fatal("compact result missing allocation")
		}
		if got := compact.Sparse.Sum(); math.Abs(got-lambda) > 1e-9*lambda {
			t.Errorf("%v: compact Σλ′_i = %.12g, want %.12g", d, got, lambda)
		}
		if i, ok := sameBits(dense.Rates, compact.Sparse.Dense()); !ok {
			t.Errorf("%v: compact allocation differs from dense at station %d", d, i)
		}
		if rel := math.Abs(compact.AvgResponseTime-dense.AvgResponseTime) / dense.AvgResponseTime; rel > 1e-12 {
			t.Errorf("%v: compact T′=%.17g vs dense %.17g (rel %g)", d, compact.AvgResponseTime, dense.AvgResponseTime, rel)
		}
		var count int
		compact.Sparse.ForEach(func(station int, rate float64) {
			if rate <= 0 {
				t.Errorf("ForEach yielded non-positive rate %g at station %d", rate, station)
			}
			count++
		})
		if count != compact.Sparse.NNZ() {
			t.Errorf("ForEach visited %d stations, NNZ=%d", count, compact.Sparse.NNZ())
		}
	}
}

// TestSparsePruningDropsSlowStations checks the pruning machinery does
// real work: at light load on a fleet with a steep speed gradient, the
// slowest stations must end at exactly zero and stay out of the compact
// allocation.
func TestSparsePruningDropsSlowStations(t *testing.T) {
	servers := make([]model.Server, 128)
	for i := range servers {
		s := model.Server{Size: 4, Speed: 0.2 + 0.05*float64(i%32)}
		s.SpecialRate = 0.2 * s.Capacity(1.0)
		servers[i] = s
	}
	g := &model.Group{Servers: servers, TaskSize: 1.0}
	res, err := Optimize(g, 0.05*g.MaxGenericRate(), Options{Sparse: true, CompactResult: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sparse.NNZ() == 0 || res.Sparse.NNZ() >= g.N() {
		t.Fatalf("expected partial fleet loaded at light load, got NNZ=%d of %d", res.Sparse.NNZ(), g.N())
	}
	if res.Classes != 32 {
		t.Errorf("expected 32 classes, got %d", res.Classes)
	}
}

// TestSparseDegradedRemap checks OptimizeDegraded maps a compact
// survivor allocation back to full-fleet station indices.
func TestSparseDegradedRemap(t *testing.T) {
	g := clusteredFleet(64, 12)
	up := make([]bool, g.N())
	for i := range up {
		up[i] = i%5 != 0
	}
	lambda := 0.3 * g.MaxGenericRate()
	res, err := OptimizeDegraded(g, lambda, up, Options{Sparse: true, CompactResult: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sparse == nil {
		t.Fatal("degraded compact result missing allocation")
	}
	if res.Sparse.N != g.N() {
		t.Fatalf("sparse N=%d, want %d", res.Sparse.N, g.N())
	}
	prev := int32(-1)
	res.Sparse.ForEach(func(station int, rate float64) {
		if !up[station] {
			t.Errorf("down station %d carries rate %g", station, rate)
		}
		if int32(station) <= prev {
			t.Errorf("indices not ascending at station %d", station)
		}
		prev = int32(station)
	})
	if got := res.Sparse.Sum(); math.Abs(got-res.Admitted) > 1e-9*res.Admitted {
		t.Errorf("compact Σλ′_i = %.12g, want admitted %.12g", got, res.Admitted)
	}
}

// TestSparseDegradedMatchesDenseBitIdentical pins the call serve's
// buildPlan makes: OptimizeDegraded with stations down and the dense
// result slices materialized. The per-class result must expand to the
// same bits as the dense solve over the survivors.
func TestSparseDegradedMatchesDenseBitIdentical(t *testing.T) {
	g := clusteredFleet(512, 24)
	up := make([]bool, g.N())
	for i := range up {
		up[i] = i%7 != 3
	}
	lambda := 0.4 * g.MaxGenericRate()
	for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
		dense, err := OptimizeDegraded(g, lambda, up, Options{Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := OptimizeDegraded(g, lambda, up, Options{Discipline: d, Sparse: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			name          string
			dense, sparse []float64
		}{
			{"rates", dense.Rates, sparse.Rates},
			{"utilizations", dense.Utilizations, sparse.Utilizations},
			{"response times", dense.ResponseTimes, sparse.ResponseTimes},
		} {
			if i, ok := sameBits(f.dense, f.sparse); !ok {
				t.Errorf("%v: %s differ at station %d", d, f.name, i)
			}
		}
		if math.Float64bits(dense.AvgResponseTime) != math.Float64bits(sparse.AvgResponseTime) {
			t.Errorf("%v: T′ differs: dense %.17g sparse %.17g", d, dense.AvgResponseTime, sparse.AvgResponseTime)
		}
	}
}

// TestSparseKKTProperty is the randomized property test: on seeded
// heterogeneous fleets across three sizes, with and without a
// utilization cap, the sparse path's allocation must satisfy the KKT
// conditions to tolerance and match the dense solver bit for bit.
func TestSparseKKTProperty(t *testing.T) {
	sizes := []int{64, 512, 4096}
	if testing.Short() {
		sizes = sizes[:2]
	}
	rng := rand.New(rand.NewSource(20260807))
	for _, n := range sizes {
		for trial := 0; trial < 3; trial++ {
			g := randomFleet(rng, n)
			frac := 0.15 + 0.7*rng.Float64()
			d := queueing.FCFS
			if rng.Intn(2) == 1 {
				d = queueing.Priority
			}
			cap := 0.0
			if rng.Intn(2) == 1 {
				cap = 0.85 + 0.1*rng.Float64()
			}
			name := fmt.Sprintf("n=%d/trial=%d/%v/cap=%.3g/frac=%.3g", n, trial, d, cap, frac)
			lambda := frac * g.MaxGenericRate()
			if cap > 0 {
				// Keep λ′ inside the capped capacity so the solve is
				// feasible under the cap as well.
				var capTotal numeric.KahanSum
				for _, s := range g.Servers {
					if r := cap*s.Capacity(g.TaskSize) - s.SpecialRate; r > 0 {
						capTotal.Add(r)
					}
				}
				if ceiling := 0.95 * capTotal.Value(); lambda > ceiling {
					lambda = ceiling
				}
			}
			opts := Options{Discipline: d, MaxUtilization: cap, Parallel: n >= 4096}
			opts.Sparse = true
			sparse, err := Optimize(g, lambda, opts)
			if err != nil {
				t.Fatalf("%s: sparse: %v", name, err)
			}
			if got := numeric.Sum(sparse.Rates); math.Abs(got-lambda) > 1e-9*lambda {
				t.Errorf("%s: Σλ′_i = %.12g, want %.12g", name, got, lambda)
			}
			if err := g.Feasible(sparse.Rates); err != nil {
				t.Errorf("%s: infeasible: %v", name, err)
			}
			if cap == 0 {
				// KKTResidual assumes uncapped stationarity; capped
				// solves pin stations at the cap boundary instead.
				resid, err := KKTResidual(g, d, sparse.Rates)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if resid > 1e-6 {
					t.Errorf("%s: KKT residual %g too large", name, resid)
				}
			}
			opts.Sparse = false
			opts.Parallel = false
			dense, err := Optimize(g, lambda, opts)
			if err != nil {
				t.Fatalf("%s: dense: %v", name, err)
			}
			if i, ok := sameBits(dense.Rates, sparse.Rates); !ok {
				t.Errorf("%s: sparse diverged from dense at station %d: %x vs %x",
					name, i, math.Float64bits(dense.Rates[i]), math.Float64bits(sparse.Rates[i]))
			}
		}
	}
}
