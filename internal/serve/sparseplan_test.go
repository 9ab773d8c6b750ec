package serve

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/model"
)

// fleetGroup builds a clustered heterogeneous fleet large enough to
// trip buildPlan's compact-picker gate.
func fleetGroup(n int) *model.Group {
	servers := make([]model.Server, n)
	for i := range servers {
		k := i % 16
		s := model.Server{Size: 2 + 2*(k%8), Speed: 1.7 - 0.1*float64(k%7)}
		s.SpecialRate = 0.3 * float64(s.Size) * s.Speed
		servers[i] = s
	}
	return &model.Group{Servers: servers, TaskSize: 1.0}
}

// TestBuildPlanSparsePickerMatchesDense pins that a plan whose picker
// is built from the solve's compact allocation routes the bit-identical
// station, for every uniform variate, that a picker built from the
// plan's full rate vector routes.
func TestBuildPlanSparsePickerMatchesDense(t *testing.T) {
	g := fleetGroup(256)
	// Light load on a speed-graded fleet: most classes stay unloaded, so
	// the compact-picker gate (NNZ ≤ n/2) is exercised for real.
	for i := range g.Servers {
		g.Servers[i].Speed = 0.2 + 0.05*float64(i%32)
		g.Servers[i].SpecialRate = 0.2 * g.Servers[i].Capacity(g.TaskSize)
	}
	lambda := 0.05 * g.MaxGenericRate()
	now := time.Unix(1700000000, 0)
	plan, err := buildPlan(mustFleet(t, g), lambda, nil, core.Options{}, 1, now, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded := 0
	for _, r := range plan.Rates {
		if r > 0 {
			loaded++
		}
	}
	if loaded == 0 || 2*loaded > g.N() {
		t.Fatalf("%d of %d stations loaded; the compact picker needs at most half", loaded, g.N())
	}
	dense, err := dispatch.NewProbabilistic(plan.Rates)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50000; trial++ {
		u := rng.Float64()
		if got, want := plan.PickU(u), dense.PickU(u); got != want {
			t.Fatalf("u=%v: plan picked %d, dense picker picked %d", u, got, want)
		}
	}
}

// TestBuildPlanSparseWithRampFallsBackDense checks the ramp path: a
// capped-weight recovery rescales the rates after the solve, so the
// picker must be rebuilt from the rescaled dense vector, not the
// pre-ramp compact allocation.
func TestBuildPlanSparseWithRampFallsBackDense(t *testing.T) {
	g := fleetGroup(128)
	lambda := 0.4 * g.MaxGenericRate()
	ramp := make([]float64, g.N())
	for i := range ramp {
		ramp[i] = 1
	}
	ramp[0] = 0.25 // station 0 ramping back in at a quarter share
	now := time.Unix(1700000000, 0)
	plan, err := buildPlan(mustFleet(t, g), lambda, nil, core.Options{}, 1, now, ramp, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ramp == nil {
		t.Fatal("ramp vector not recorded")
	}
	// At 0.4×saturation every station carries load; the ramped station's
	// share must be strictly below its unramped optimum.
	unramped, err := buildPlan(mustFleet(t, g), lambda, nil, core.Options{}, 1, now, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rates[0] >= unramped.Rates[0] {
		t.Errorf("ramped station 0 carries %g, unramped %g", plan.Rates[0], unramped.Rates[0])
	}
	// The picker must realize the ramped distribution: station 0's pick
	// frequency over a fixed variate grid should be well below its
	// unramped frequency.
	picks := func(p *Plan) int {
		count := 0
		for k := 0; k < 100000; k++ {
			if p.PickU((float64(k)+0.5)/100000) == 0 {
				count++
			}
		}
		return count
	}
	if got, want := picks(plan), picks(unramped); got >= want {
		t.Errorf("ramped plan picked station 0 %d times, unramped %d", got, want)
	}
}

func mustFleet(t testing.TB, g *model.Group) *core.Fleet {
	t.Helper()
	f, err := core.NewFleet(g)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mustTally returns the fleet's tally of up.
func mustTally(t testing.TB, fleet *core.Fleet, up []bool) *core.Tally {
	t.Helper()
	tally, err := fleet.NewTally(up)
	if err != nil {
		t.Fatal(err)
	}
	return tally
}
