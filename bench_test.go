package repro

// Benchmark harness: one benchmark per table and figure of the paper
// (BenchmarkTable1 … BenchmarkFig15 regenerate the published artifact
// end to end), plus ablation benches for the design choices called out
// in DESIGN.md §6. Run with:
//
//	go test -bench=. -benchmem
//
// Use -run '^$' to skip tests while benchmarking.

import (
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/queueing"
	"repro/internal/sim"

	"repro/internal/dispatch"
)

// benchTable regenerates a table experiment once per iteration.
func benchTable(b *testing.B, id string, wantT float64) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.RunTable()
		if err != nil {
			b.Fatal(err)
		}
		if math.Abs(res.T-wantT) > 5e-8 {
			b.Fatalf("%s: T′ = %.7f, want %.7f", id, res.T, wantT)
		}
	}
}

// benchFigure regenerates a figure experiment once per iteration and
// reports the full series through the text renderer (discarded), so
// the measured cost is the complete regeneration path.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.RunFigure()
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchTable(b, "table1", 0.8964703) }
func BenchmarkTable2(b *testing.B) { benchTable(b, "table2", 0.9209392) }

func BenchmarkFig4(b *testing.B)  { benchFigure(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchFigure(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchFigure(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchFigure(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchFigure(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchFigure(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchFigure(b, "fig15") }

// --- Core solver scaling: one optimization at the paper's operating
// point, for growing cluster sizes. ---

// signatureFleet builds an n-station group from a repeating pattern of
// 8 sizes and 7 speeds: 56 distinct (size, speed) classes, so the sparse
// path's class clustering does real work without being degenerate
// (~180 stations per class at n=10,000).
func signatureFleet(b *testing.B, n int) *model.Group {
	b.Helper()
	sizes := make([]int, n)
	speeds := make([]float64, n)
	for i := 0; i < n; i++ {
		sizes[i] = 2 + 2*(i%8)
		speeds[i] = 1.7 - 0.1*float64(i%7)
	}
	g, err := model.PaperGroup(sizes, speeds, 1.0, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchOptimize(b *testing.B, n int, d queueing.Discipline) {
	b.Helper()
	g := signatureFleet(b, n)
	lambda := 0.5 * g.MaxGenericRate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(g, lambda, core.Options{Discipline: d}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeN7FCFS(b *testing.B)     { benchOptimize(b, 7, queueing.FCFS) }
func BenchmarkOptimizeN7Priority(b *testing.B) { benchOptimize(b, 7, queueing.Priority) }
func BenchmarkOptimizeN64FCFS(b *testing.B)    { benchOptimize(b, 64, queueing.FCFS) }
func BenchmarkOptimizeN512FCFS(b *testing.B)   { benchOptimize(b, 512, queueing.FCFS) }

// BenchmarkOptimizeWarmDriftN7 is the serving daemon's drift re-solve
// on the paper's Example 1: λ′ steps by ×1.2 from 0.15 of saturation up
// to 0.86 and back down by ×0.8, and each op re-solves the next step
// through core.OptimizeDegraded warm-started from the previous plan's
// φ, as bladed's resolver does. The other Optimize benchmarks are cold.
func BenchmarkOptimizeWarmDriftN7(b *testing.B) {
	g := model.LiExample1Group()
	sat := g.MaxGenericRate()
	var fracs []float64
	for f := 0.15; f <= 0.86; f *= 1.2 {
		fracs = append(fracs, f)
	}
	for f := fracs[len(fracs)-1] * 0.8; f >= 0.15; f *= 0.8 {
		fracs = append(fracs, f)
	}
	opts := core.Options{Discipline: queueing.FCFS}
	res, err := core.OptimizeDegraded(g, fracs[len(fracs)-1]*sat, nil, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.WarmPhi = res.Phi
		if res, err = core.OptimizeDegraded(g, fracs[i%len(fracs)]*sat, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fleet-scale solves: class clustering and marginal-cost pruning
// (DESIGN §14) on synthetic heterogeneous fleets. The N10k series is
// the ROADMAP's "well under a second" target and is gated in CI with an
// absolute time budget via bladebench -budget. ---

// benchOptimizeSparse solves a clustered fleet (signatureFleet) at frac
// of saturation, optionally under a utilization cap.
func benchOptimizeSparse(b *testing.B, n int, d queueing.Discipline, frac, rhoCap float64) {
	b.Helper()
	g := signatureFleet(b, n)
	lambda := frac * g.MaxGenericRate()
	opts := core.Options{Discipline: d, MaxUtilization: rhoCap}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(g, lambda, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeN512Sparse(b *testing.B) {
	benchOptimizeSparse(b, 512, queueing.FCFS, 0.5, 0)
}
func BenchmarkOptimizeN10kFCFS(b *testing.B) {
	benchOptimizeSparse(b, 10000, queueing.FCFS, 0.5, 0)
}
func BenchmarkOptimizeN10kPriority(b *testing.B) {
	benchOptimizeSparse(b, 10000, queueing.Priority, 0.5, 0)
}
func BenchmarkOptimizeN10kCapped(b *testing.B) {
	benchOptimizeSparse(b, 10000, queueing.FCFS, 0.5, 0.9)
}

// BenchmarkOptimizeN10kLowLoad is the pruning showcase: at 5% of
// saturation most classes stay outside the active set at every probe.
func BenchmarkOptimizeN10kLowLoad(b *testing.B) {
	benchOptimizeSparse(b, 10000, queueing.FCFS, 0.05, 0)
}

// BenchmarkOptimizeDegradedN10k is the solve behind each fleet re-plan,
// made as serve's buildPlan makes it: the 10,000-station signatureFleet
// indexed once by core.NewFleet, warm-started from the previous solve's
// φ, with λ′ cycling through 0.3–0.7 of saturation and station 4321
// down on every other op.
func BenchmarkOptimizeDegradedN10k(b *testing.B) {
	g := signatureFleet(b, 10000)
	fleet, err := core.NewFleet(g)
	if err != nil {
		b.Fatal(err)
	}
	sat := g.MaxGenericRate()
	fracs := []float64{0.3, 0.4, 0.5, 0.6, 0.7}
	down := make([]bool, g.N())
	for i := range down {
		down[i] = true
	}
	down[4321] = false
	opts := core.Options{Discipline: queueing.FCFS}
	res, err := fleet.OptimizeDegraded(0.5*sat, nil, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var up []bool
		if i%2 == 1 {
			up = down
		}
		opts.WarmPhi = res.Phi
		if res, err = fleet.OptimizeDegraded(fracs[i%len(fracs)]*sat, up, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: stable Erlang recurrence vs the paper's factorial
// formulas for the M/M/m response time. ---

func BenchmarkErlangStable(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		for m := 1; m <= 64; m *= 2 {
			sink += queueing.ResponseTime(m, 0.7, 1.0)
		}
	}
	if sink == 0 {
		b.Fatal("unexpected zero")
	}
}

func BenchmarkErlangNaive(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		for m := 1; m <= 64; m *= 2 {
			sink += queueing.NaiveResponseTime(m, 0.7, 1.0)
		}
	}
	if sink == 0 {
		b.Fatal("unexpected zero")
	}
}

// --- Ablation: analytic vs finite-difference marginal-cost
// derivative. ---

func BenchmarkDerivativeAnalytic(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += queueing.DGenericResponseDRho(queueing.FCFS, 14, 0.7, 0.3, 1.0)
	}
	_ = sink
}

func BenchmarkDerivativeNumeric(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += numeric.Derivative(func(x float64) float64 {
			return queueing.GenericResponseTime(queueing.FCFS, 14, x, 0.3, 1.0)
		}, 0.7)
	}
	_ = sink
}

// --- Ablation: bisection vs Brent on the same inner marginal-cost
// equation (Fig. 2's solve for one server). ---

func innerEquation() (func(float64) float64, float64, float64) {
	s := model.Server{Size: 10, Speed: 1.2, SpecialRate: 3.6}
	const lambdaTotal, phi = 23.52, 0.046
	f := func(l float64) float64 {
		return s.MarginalCost(queueing.FCFS, l, lambdaTotal, 1.0) - phi
	}
	return f, 0, 0.999 * s.MaxGenericRate(1.0)
}

func BenchmarkInnerSolverBisection(b *testing.B) {
	f, lo, hi := innerEquation()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := numeric.Bisect(f, lo, hi, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInnerSolverBrent(b *testing.B) {
	f, lo, hi := innerEquation()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := numeric.Brent(f, lo, hi, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: closed form (Theorem 1) vs the general bisection
// solver on a single-blade cluster. ---

func singleBladeBenchGroup() *model.Group {
	servers := make([]model.Server, 16)
	for i := range servers {
		servers[i] = model.Server{Size: 1, Speed: 0.5 + 0.1*float64(i), SpecialRate: 0.05 * float64(i)}
	}
	return &model.Group{Servers: servers, TaskSize: 1}
}

func BenchmarkClosedFormTheorem1(b *testing.B) {
	g := singleBladeBenchGroup()
	lambda := 0.6 * g.MaxGenericRate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ClosedFormFCFS(g, lambda); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClosedFormViaBisection(b *testing.B) {
	g := singleBladeBenchGroup()
	lambda := 0.6 * g.MaxGenericRate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(g, lambda, core.Options{Discipline: queueing.FCFS}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: parallel vs sequential figure sweep. ---

func BenchmarkSweepParallel(b *testing.B) {
	e, err := experiments.ByID("fig12")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunFigure(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSequential(b *testing.B) {
	e, err := experiments.ByID("fig12")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunFigureSequential(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulator throughput: events processed per second on the paper's
// example system at the Table 1 operating point. ---

func BenchmarkSimulatePaperSystem(b *testing.B) {
	g := model.LiExample1Group()
	lambda := 0.5 * g.MaxGenericRate()
	res, err := core.Optimize(g, lambda, core.Options{Discipline: queueing.FCFS})
	if err != nil {
		b.Fatal(err)
	}
	disp, err := dispatch.NewProbabilistic(res.Rates)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := sim.Run(sim.Config{
			Group: g, Discipline: queueing.FCFS, GenericRate: lambda,
			Dispatcher: disp, Horizon: 1000, Warmup: 100, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if run.CompletedGeneric == 0 {
			b.Fatal("no completions")
		}
	}
}

// --- Facade hot path: optimize per tier of operating load (shows the
// solver cost is insensitive to λ′ except near saturation). ---

func BenchmarkOptimizeLoadSweep(b *testing.B) {
	g := model.LiExample1Group()
	for _, frac := range []float64{0.3, 0.6, 0.9, 0.99} {
		frac := frac
		b.Run(fmt.Sprintf("frac=%.2f", frac), func(b *testing.B) {
			lambda := frac * g.MaxGenericRate()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Optimize(g, lambda, core.Options{Discipline: queueing.FCFS}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
