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
// the class evaluator has real clustering to exploit.
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

// unclusteredFleet indexes g with one class per station, whatever the
// stations' signatures: the station-by-station solve, which a clustered
// solve must reproduce bit for bit.
func unclusteredFleet(g *model.Group) *Fleet {
	f := &Fleet{
		g:       g,
		classOf: make([]int32, g.N()),
		classes: make([]fleetClass, g.N()),
		counts:  make([]int, g.N()),
	}
	for i, s := range g.Servers {
		f.classOf[i] = int32(i)
		f.classes[i] = fleetClass{rep: s, capacity: s.Capacity(g.TaskSize), maxRate: s.MaxGenericRate(g.TaskSize)}
		f.counts[i] = 1
	}
	return f
}

// optimizeUnclustered is Optimize on unclusteredFleet(g).
func optimizeUnclustered(g *model.Group, lambda float64, opts Options) (*Result, error) {
	f := unclusteredFleet(g)
	return f.solve(lambda, nil, f.counts, opts)
}

// checkCompact checks a result's compact allocation against its Rates:
// present exactly when the allocation is sparse, and then the stations
// with positive rate, ascending, with the same bits.
func checkCompact(t *testing.T, label string, res *Result) {
	t.Helper()
	nnz := 0
	for _, r := range res.Rates {
		if r > 0 {
			nnz++
		}
	}
	sp := res.Sparse
	if want := sparseResult(len(res.Rates), nnz); (sp != nil) != want {
		t.Fatalf("%s: compact allocation present %t over %d stations, %d loaded; want %t", label, sp != nil, len(res.Rates), nnz, want)
	}
	if sp == nil {
		return
	}
	if sp.N != len(res.Rates) || len(sp.Rate) != sp.NNZ() {
		t.Fatalf("%s: compact N %d, %d rates for %d indices; %d stations", label, sp.N, len(sp.Rate), sp.NNZ(), len(res.Rates))
	}
	k := 0
	for i, r := range res.Rates {
		if r <= 0 {
			continue
		}
		if k == sp.NNZ() || sp.Index[k] != int32(i) || math.Float64bits(sp.Rate[k]) != math.Float64bits(r) {
			t.Fatalf("%s: compact entry %d does not list station %d (rate %v)", label, k, i, r)
		}
		k++
	}
	if k != sp.NNZ() {
		t.Errorf("%s: compact form lists %d stations, %d carry load", label, sp.NNZ(), k)
	}
}

// TestSparseMatchesDenseBitIdentical pins the central claim of the
// class evaluator: class clustering plus MC(0) pruning is a pure
// re-bracketing of identical arithmetic, so every output — rates, φ,
// response times, utilizations — matches the unclustered solve, one
// class per station, bit for bit. The compact allocation lists exactly
// the loaded stations, ascending.
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
					want, err := optimizeUnclustered(g, lambda, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Optimize(g, lambda, opts)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(want.Phi) != math.Float64bits(got.Phi) {
						t.Errorf("φ differs: unclustered %x clustered %x", math.Float64bits(want.Phi), math.Float64bits(got.Phi))
					}
					if i, ok := sameBits(want.Rates, got.Rates); !ok {
						t.Errorf("rates differ at station %d: unclustered %x clustered %x",
							i, math.Float64bits(want.Rates[i]), math.Float64bits(got.Rates[i]))
					}
					if math.Float64bits(want.AvgResponseTime) != math.Float64bits(got.AvgResponseTime) {
						t.Errorf("T′ differs: unclustered %g clustered %g", want.AvgResponseTime, got.AvgResponseTime)
					}
					if i, ok := sameBits(want.Utilizations, got.Utilizations); !ok {
						t.Errorf("utilizations differ at station %d", i)
					}
					if i, ok := sameBits(want.ResponseTimes, got.ResponseTimes); !ok {
						t.Errorf("response times differ at station %d", i)
					}
					if got.Classes <= 0 || got.Classes > g.N() {
						t.Errorf("implausible class count %d for n=%d", got.Classes, g.N())
					}
					checkCompact(t, "clustered", got)
					checkCompact(t, "unclustered", want)
				})
			}
		}
	}
}

// TestSparsePureBisection covers the class evaluator under
// PureBisection: the inner solve goes through FindRateLimited on each
// class representative, and the clustered solve must still match the
// unclustered one.
func TestSparsePureBisection(t *testing.T) {
	g := clusteredFleet(64, 12)
	lambda := 0.4 * g.MaxGenericRate()
	want, err := optimizeUnclustered(g, lambda, Options{PureBisection: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Optimize(g, lambda, Options{PureBisection: true})
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := sameBits(want.Rates, got.Rates); !ok {
		t.Errorf("rates differ at station %d", i)
	}
	if math.Float64bits(want.AvgResponseTime) != math.Float64bits(got.AvgResponseTime) {
		t.Errorf("T′ differs: unclustered %.17g clustered %.17g", want.AvgResponseTime, got.AvgResponseTime)
	}
	checkCompact(t, "pure bisection", got)
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
	res, err := Optimize(g, 0.05*g.MaxGenericRate(), Options{})
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

// TestSparseDegradedRemap checks OptimizeDegraded maps a survivor
// allocation back to full-fleet station indices: only stations up
// carry load, the compact form (when the allocation is sparse) lists
// them ascending, and the rates carry the admitted rate.
func TestSparseDegradedRemap(t *testing.T) {
	g := clusteredFleet(64, 12)
	up := make([]bool, g.N())
	for i := range up {
		up[i] = i%5 != 0
	}
	lambda := 0.3 * g.MaxGenericRate()
	res, err := OptimizeDegraded(g, lambda, up, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkCompact(t, "degraded", &res.Result)
	for station, r := range res.Rates {
		if r != 0 && !up[station] {
			t.Errorf("down station %d carries load", station)
		}
	}
	if got := numeric.Sum(res.Rates); math.Abs(got-res.Admitted) > 1e-9*res.Admitted {
		t.Errorf("Σλ′_i = %.12g, want admitted %.12g", got, res.Admitted)
	}
}

// TestSparseDegradedMatchesDenseBitIdentical pins the call serve's
// buildPlan makes: OptimizeDegraded with stations down. The clustered
// result must expand to the same bits as the unclustered solve over
// the survivors.
func TestSparseDegradedMatchesDenseBitIdentical(t *testing.T) {
	g := clusteredFleet(512, 24)
	up := make([]bool, g.N())
	for i := range up {
		up[i] = i%7 != 3
	}
	lambda := 0.4 * g.MaxGenericRate()
	for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
		unclustered := unclusteredFleet(g)
		want, err := unclustered.OptimizeDegraded(lambda, tallyOf(t, unclustered, up), Options{Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		got, err := OptimizeDegraded(g, lambda, up, Options{Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameDegraded(want, got); diff != "" {
			t.Errorf("%v: %s", d, diff)
		}
		checkCompact(t, d.String(), &got.Result)
	}
}

// TestSparseKKTProperty is the randomized property test: on seeded
// heterogeneous fleets across three sizes, with and without a
// utilization cap, the clustered allocation must satisfy the KKT
// conditions to tolerance and match the unclustered solve bit for bit.
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
			opts := Options{Discipline: d, MaxUtilization: cap}
			got, err := Optimize(g, lambda, opts)
			if err != nil {
				t.Fatalf("%s: clustered: %v", name, err)
			}
			if sum := numeric.Sum(got.Rates); math.Abs(sum-lambda) > 1e-9*lambda {
				t.Errorf("%s: Σλ′_i = %.12g, want %.12g", name, sum, lambda)
			}
			if err := g.Feasible(got.Rates); err != nil {
				t.Errorf("%s: infeasible: %v", name, err)
			}
			if cap == 0 {
				// KKTResidual assumes uncapped stationarity; capped
				// solves pin stations at the cap boundary instead.
				resid, err := KKTResidual(g, d, got.Rates)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if resid > 1e-6 {
					t.Errorf("%s: KKT residual %g too large", name, resid)
				}
			}
			want, err := optimizeUnclustered(g, lambda, opts)
			if err != nil {
				t.Fatalf("%s: unclustered: %v", name, err)
			}
			if i, ok := sameBits(want.Rates, got.Rates); !ok {
				t.Errorf("%s: clustered diverged from unclustered at station %d: %x vs %x",
					name, i, math.Float64bits(want.Rates[i]), math.Float64bits(got.Rates[i]))
			}
		}
	}
}
