package core

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/queueing"
)

// bitGolden is one pinned solve: every rate, φ and the solve's average
// response time, as IEEE-754 bit patterns.
type bitGolden struct {
	rates    [7]uint64
	phi, avg uint64
}

// check reports every field of a solve whose bits differ from g.
func (g bitGolden) check(t *testing.T, label string, rates []float64, phi, avg float64) {
	t.Helper()
	if len(rates) != len(g.rates) {
		t.Fatalf("%s: %d rates, want %d", label, len(rates), len(g.rates))
	}
	for i, r := range rates {
		if got := math.Float64bits(r); got != g.rates[i] {
			t.Errorf("%s: rate %d = %#016x (%v), want %#016x (%v)", label, i, got, r, g.rates[i], math.Float64frombits(g.rates[i]))
		}
	}
	if got := math.Float64bits(phi); got != g.phi {
		t.Errorf("%s: φ = %#016x (%v), want %#016x (%v)", label, got, phi, g.phi, math.Float64frombits(g.phi))
	}
	if got := math.Float64bits(avg); got != g.avg {
		t.Errorf("%s: T′ = %#016x (%v), want %#016x (%v)", label, got, avg, g.avg, math.Float64frombits(g.avg))
	}
}

// TestExample1Goldens pins the exact bits of the paper's Example 1
// solves at half of saturation: Optimize under both disciplines,
// OptimizeDegraded with station 6 (0-based) down, and OptimizeTotal
// under FCFS. The literals were captured from the station-by-station
// evaluator before the class evaluator replaced it. The end-to-end
// simulation of Example 1 draws its sample path from these rates, so
// any change to their last bits changes which replications it runs.
func TestExample1Goldens(t *testing.T) {
	g := model.LiExample1Group()
	lambda := 0.5 * g.MaxGenericRate()
	up := []bool{true, true, true, true, true, true, false}
	optimize := map[queueing.Discipline]bitGolden{
		queueing.FCFS: {
			rates: [7]uint64{0x3fe5495b2e990f6c, 0x3ffe15a916a7ff96, 0x4007fa99ed841ff9, 0x400f4c2ccfa6edb7, 0x401242273fbd3c96, 0x401381fa1d820849, 0x40127e6079f5c08b},
			phi:   0x3fa78d3d7b719625,
			avg:   0x3fecafe2641c675d,
		},
		queueing.Priority: {
			rates: [7]uint64{0x3fe2e7ed1b5b10c1, 0x3ffc580af2c87ead, 0x40070d1843400176, 0x400e826d328cd1c0, 0x401210db537f8ef6, 0x4013c491bd2c2781, 0x4014044ab5980c3d},
			phi:   0x3fa983484273cf8b,
			avg:   0x3fed7855902eab0a,
		},
	}
	degraded := map[queueing.Discipline]bitGolden{
		queueing.FCFS: {
			rates: [7]uint64{0x3feeb5ee08b507c4, 0x4002f3bfe337cd40, 0x400d3a081ee8e9d6, 0x4012f515935cd6b6, 0x4016622e0642af5c, 0x4018cf9585812b80, 0},
			phi:   0x3fb09a03d3a5dede,
			avg:   0x3fee44f23fc14030,
		},
		queueing.Priority: {
			rates: [7]uint64{0x3fedf1e43ba5abda, 0x4002bab5f3ac8463, 0x400d0e21dad5cd37, 0x4012ef0b0427f31f, 0x4016768c86d25c9d, 0x40190c3ae7978011, 0},
			phi:   0x3fb40d40cd7a9fc1,
			avg:   0x3ff027ec5185cebb,
		},
	}
	for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
		res, err := Optimize(g, lambda, Options{Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		optimize[d].check(t, "Optimize "+d.String(), res.Rates, res.Phi, res.AvgResponseTime)
		deg, err := OptimizeDegraded(g, lambda, up, Options{Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		if deg.Shed != 0 {
			t.Errorf("OptimizeDegraded %v shed %v", d, deg.Shed)
		}
		degraded[d].check(t, "OptimizeDegraded "+d.String(), deg.Rates, deg.Phi, deg.AvgResponseTime)
	}

	total, err := OptimizeTotal(g, lambda, Options{Discipline: queueing.FCFS})
	if err != nil {
		t.Fatal(err)
	}
	bitGolden{
		rates: [7]uint64{0x3fe08f4ea034494e, 0x3ffb8cf43cb5c950, 0x4006cf91fa61d8be, 0x400e6bc2c5c75a60, 0x40121c2869be882d, 0x4013f115394d46e5, 0x4014746bfaf349f5},
		phi:   0x3f9cb678af9dd314,
		avg:   0x3feca554ae73f7c1,
	}.check(t, "OptimizeTotal fcfs", total.Rates, total.Phi, total.AvgAllTasks)
	for _, f := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"AvgGeneric", total.AvgGeneric, 0x3fecbcca1e03eca1},
		{"AvgSpecial", total.AvgSpecial, 0x3fec89f656f6af63},
	} {
		if math.Float64bits(f.got) != f.want {
			t.Errorf("OptimizeTotal fcfs: %s = %#016x (%v), want %#016x", f.name, math.Float64bits(f.got), f.got, f.want)
		}
	}
}
