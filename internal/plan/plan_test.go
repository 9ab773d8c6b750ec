package plan

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/queueing"
)

func liGroup() *model.Group { return model.LiExample1Group() }

func optimalT(t *testing.T, g *model.Group, d queueing.Discipline, lambda float64) float64 {
	t.Helper()
	res, err := core.Optimize(g, lambda, core.Options{Discipline: d})
	if err != nil {
		t.Fatal(err)
	}
	return res.AvgResponseTime
}

func TestMaxAdmissibleRateBoundary(t *testing.T) {
	g := liGroup()
	const sla = 0.95
	lim, err := MaxAdmissibleRate(g, queueing.FCFS, sla)
	if err != nil {
		t.Fatal(err)
	}
	if lim <= 0 || lim >= g.MaxGenericRate() {
		t.Fatalf("limit %g out of range", lim)
	}
	// Just below the limit: SLA met. Just above: violated.
	below := optimalT(t, g, queueing.FCFS, lim*0.999)
	if below > sla {
		t.Fatalf("T′ just below limit = %g > SLA %g", below, sla)
	}
	above := optimalT(t, g, queueing.FCFS, math.Min(lim*1.001, 0.9999*g.MaxGenericRate()))
	if above < sla {
		t.Fatalf("T′ just above limit = %g < SLA %g", above, sla)
	}
}

func TestMaxAdmissibleRatePriorityLower(t *testing.T) {
	// Priority slows generics, so the admissible rate under the same
	// SLA must be lower.
	g := liGroup()
	const sla = 0.95
	fc, err := MaxAdmissibleRate(g, queueing.FCFS, sla)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := MaxAdmissibleRate(g, queueing.Priority, sla)
	if err != nil {
		t.Fatal(err)
	}
	if pr >= fc {
		t.Fatalf("priority limit %g should be below FCFS limit %g", pr, fc)
	}
}

func TestMaxAdmissibleRateLooseSLA(t *testing.T) {
	// An SLA far above any achievable T′ returns (nearly) saturation.
	g := liGroup()
	lim, err := MaxAdmissibleRate(g, queueing.FCFS, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if lim < 0.999*g.MaxGenericRate() {
		t.Fatalf("loose SLA limit %g, want ≈ λ′_max %g", lim, g.MaxGenericRate())
	}
}

func TestMaxAdmissibleRateImpossibleSLA(t *testing.T) {
	g := liGroup()
	// The floor is at least the fastest x̄ (0.625): an SLA of 0.1 is
	// unachievable.
	if _, err := MaxAdmissibleRate(g, queueing.FCFS, 0.1); err == nil {
		t.Fatal("impossible SLA should fail")
	}
	if _, err := MaxAdmissibleRate(g, queueing.FCFS, 0); err == nil {
		t.Fatal("zero SLA should fail")
	}
	if _, err := MaxAdmissibleRate(&model.Group{TaskSize: 1}, queueing.FCFS, 1); err == nil {
		t.Fatal("invalid group should fail")
	}
}

func TestPlanBladesMeetsSLA(t *testing.T) {
	g := liGroup()
	lambda := 0.6 * g.MaxGenericRate()
	before := optimalT(t, g, queueing.FCFS, lambda)
	sla := before * 0.97 // demand a 3 % improvement
	expanded, placements, err := PlanBlades(g, queueing.FCFS, lambda, sla, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) == 0 {
		t.Fatal("expected at least one blade")
	}
	after := optimalT(t, expanded, queueing.FCFS, lambda)
	if after > sla {
		t.Fatalf("after planning T′ = %g > SLA %g", after, sla)
	}
	// Original group untouched.
	if g.TotalBlades() != 56 {
		t.Fatalf("original mutated: %d blades", g.TotalBlades())
	}
	// Each step's recorded T′ decreases (infeasible steps report +Inf
	// and may repeat while capacity is being restored).
	prev := math.Inf(1)
	for i, p := range placements {
		if p.ResponseTime >= prev && !math.IsInf(p.ResponseTime, 1) {
			t.Fatalf("step %d did not improve: %g after %g", i, p.ResponseTime, prev)
		}
		if p.Server < 0 || p.Server >= g.N() {
			t.Fatalf("step %d placed on invalid server %d", i, p.Server)
		}
		prev = p.ResponseTime
	}
}

func TestPlanBladesAlreadyCompliant(t *testing.T) {
	g := liGroup()
	lambda := 0.3 * g.MaxGenericRate()
	sla := optimalT(t, g, queueing.FCFS, lambda) + 1
	expanded, placements, err := PlanBlades(g, queueing.FCFS, lambda, sla, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) != 0 {
		t.Fatalf("no blades needed, got %d", len(placements))
	}
	if expanded.TotalBlades() != g.TotalBlades() {
		t.Fatal("compliant group should be returned unchanged")
	}
}

func TestPlanBladesBudgetExhausted(t *testing.T) {
	g := liGroup()
	lambda := 0.6 * g.MaxGenericRate()
	// Demand an enormous improvement with a tiny budget.
	if _, _, err := PlanBlades(g, queueing.FCFS, lambda, 0.7, 2); err == nil {
		t.Fatal("tiny budget should fail")
	}
}

func TestPlanBladesValidation(t *testing.T) {
	g := liGroup()
	if _, _, err := PlanBlades(g, queueing.FCFS, -1, 1, 5); err == nil {
		t.Error("negative load should fail")
	}
	if _, _, err := PlanBlades(g, queueing.FCFS, 1, 0, 5); err == nil {
		t.Error("zero SLA should fail")
	}
	if _, _, err := PlanBlades(g, queueing.FCFS, 1, 1, -1); err == nil {
		t.Error("negative budget should fail")
	}
	if _, _, err := PlanBlades(&model.Group{TaskSize: 1}, queueing.FCFS, 1, 1, 5); err == nil {
		t.Error("invalid group should fail")
	}
}

func TestPlanBladesOverload(t *testing.T) {
	// Load beyond saturation: blades must be added until feasible,
	// then until the SLA holds.
	g := liGroup()
	lambda := 1.05 * g.MaxGenericRate()
	expanded, placements, err := PlanBlades(g, queueing.FCFS, lambda, 1.2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) == 0 {
		t.Fatal("overloaded system needs blades")
	}
	if lambda >= expanded.MaxGenericRate() {
		t.Fatal("expanded system still saturated")
	}
}

func TestMinSpeedScale(t *testing.T) {
	g := liGroup()
	lambda := 0.6 * g.MaxGenericRate()
	before := optimalT(t, g, queueing.FCFS, lambda)
	sla := before * 0.8
	k, err := MinSpeedScale(g, queueing.FCFS, lambda, sla, 10)
	if err != nil {
		t.Fatal(err)
	}
	if k <= 1 {
		t.Fatalf("scale %g should exceed 1", k)
	}
	// Verify the scaled system meets the SLA and k is minimal-ish.
	scaled := g.Clone()
	for i := range scaled.Servers {
		scaled.Servers[i].Speed *= k
		scaled.Servers[i].SpecialRate *= k
	}
	if got := optimalT(t, scaled, queueing.FCFS, lambda); got > sla*(1+1e-6) {
		t.Fatalf("scaled T′ = %g > SLA %g", got, sla)
	}
	under := g.Clone()
	for i := range under.Servers {
		under.Servers[i].Speed *= k * 0.99
		under.Servers[i].SpecialRate *= k * 0.99
	}
	if got := optimalT(t, under, queueing.FCFS, lambda); got <= sla {
		t.Fatalf("0.99k already meets SLA (T′=%g), k not minimal", got)
	}
}

func TestMinSpeedScaleAlreadyCompliant(t *testing.T) {
	g := liGroup()
	lambda := 0.3 * g.MaxGenericRate()
	sla := optimalT(t, g, queueing.FCFS, lambda) * 1.5
	k, err := MinSpeedScale(g, queueing.FCFS, lambda, sla, 10)
	if err != nil || k != 1 {
		t.Fatalf("k=%g err=%v, want 1", k, err)
	}
}

func TestMinSpeedScaleValidation(t *testing.T) {
	g := liGroup()
	if _, err := MinSpeedScale(g, queueing.FCFS, 1, 1, 0.5); err == nil {
		t.Error("maxScale < 1 should fail")
	}
	if _, err := MinSpeedScale(g, queueing.FCFS, 0, 1, 2); err == nil {
		t.Error("zero load should fail")
	}
	if _, err := MinSpeedScale(g, queueing.FCFS, 1, -1, 2); err == nil {
		t.Error("negative SLA should fail")
	}
	// x̄ scales as 1/k, so T′ ≥ x̄_min/k: an SLA of 1e-6 needs k ≈ 1e6.
	if _, err := MinSpeedScale(g, queueing.FCFS, 10, 1e-6, 4); err == nil {
		t.Error("unreachable SLA within maxScale should fail")
	}
	if _, err := MinSpeedScale(&model.Group{TaskSize: 1}, queueing.FCFS, 1, 1, 2); err == nil {
		t.Error("invalid group should fail")
	}
}

// The admission frontier itself must be monotone: a tighter SLA admits
// no more load.
func TestAdmissionFrontierMonotone(t *testing.T) {
	g := liGroup()
	prev := math.Inf(1)
	for _, sla := range []float64{2.0, 1.3, 1.0, 0.92} {
		lim, err := MaxAdmissibleRate(g, queueing.FCFS, sla)
		if err != nil {
			t.Fatal(err)
		}
		if lim > prev+1e-6 {
			t.Fatalf("tighter SLA %g admits more load: %g after %g", sla, lim, prev)
		}
		prev = lim
	}
}

// TestMaxAdmissibleRateWarmStartBitIdentical pins that chaining the
// previous probe's Lagrange multiplier into the next solve (the warm
// path the exported MaxAdmissibleRate uses) returns the bit-identical
// frontier of the cold path at every SLA and discipline tried.
func TestMaxAdmissibleRateWarmStartBitIdentical(t *testing.T) {
	g := liGroup()
	for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
		for _, sla := range []float64{0.8, 0.95, 1.2, 2.5} {
			warm, warmErr := maxAdmissibleRate(g, d, sla, true)
			cold, coldErr := maxAdmissibleRate(g, d, sla, false)
			if (warmErr == nil) != (coldErr == nil) {
				t.Fatalf("d=%v sla=%g: warm err %v, cold err %v", d, sla, warmErr, coldErr)
			}
			if warmErr != nil {
				continue
			}
			if warm != cold {
				t.Errorf("d=%v sla=%g: warm %.17g != cold %.17g (diff %g)",
					d, sla, warm, cold, warm-cold)
			}
		}
	}
}
