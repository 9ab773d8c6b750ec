package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/queueing"
)

// sameDegraded reports the first field in which two degraded results
// differ, bit for bit, or "" when they agree.
func sameDegraded(a, b *DegradedResult) string {
	for _, f := range []struct {
		name string
		a, b float64
	}{
		{"φ", a.Phi, b.Phi},
		{"T′", a.AvgResponseTime, b.AvgResponseTime},
		{"total rate", a.TotalRate, b.TotalRate},
		{"admitted", a.Admitted, b.Admitted},
		{"shed", a.Shed, b.Shed},
	} {
		if math.Float64bits(f.a) != math.Float64bits(f.b) {
			return fmt.Sprintf("%s: %v (%#x) vs %v (%#x)", f.name, f.a, math.Float64bits(f.a), f.b, math.Float64bits(f.b))
		}
	}
	for _, f := range []struct {
		name string
		a, b []float64
	}{
		{"rates", a.Rates, b.Rates},
		{"utilizations", a.Utilizations, b.Utilizations},
		{"response times", a.ResponseTimes, b.ResponseTimes},
	} {
		if i, ok := sameBits(f.a, f.b); !ok {
			return fmt.Sprintf("%s differ at station %d", f.name, i)
		}
	}
	if a.Discipline != b.Discipline || a.Survivors != b.Survivors || !slices.Equal(a.Up, b.Up) {
		return fmt.Sprintf("discipline/survivors/up: %v/%d vs %v/%d", a.Discipline, a.Survivors, b.Discipline, b.Survivors)
	}
	return ""
}

// tallyOf returns the fleet's tally of up, nil for nil: a nil tally is
// every station up.
func tallyOf(t testing.TB, fleet *Fleet, up []bool) *Tally {
	t.Helper()
	if up == nil {
		return nil
	}
	tally, err := fleet.NewTally(up)
	if err != nil {
		t.Fatal(err)
	}
	return tally
}

// upVectors returns the availability patterns the fleet tests solve
// against: all up (nil), about a tenth down at random, every member of
// station 0's class down, and a single survivor.
func upVectors(rng *rand.Rand, fleet *Fleet) map[string][]bool {
	n := fleet.N()
	random := make([]bool, n)
	classDown := make([]bool, n)
	single := make([]bool, n)
	for i, c := range fleet.classOf {
		random[i] = rng.Intn(10) != 0
		classDown[i] = c != fleet.classOf[0]
	}
	random[rng.Intn(n)] = true // at least one survivor
	single[rng.Intn(n)] = true
	return map[string][]bool{"nil": nil, "random": random, "class down": classDown, "single": single}
}

// TestFleetMatchesDenseBitIdentical pins the Fleet's re-plan —
// survivors carried as class counts, totals summed exactly per class,
// the result fanned out straight into full-length vectors — against the
// unclustered solve, one class per station: on random clustered fleets,
// under both disciplines, with and without a utilization cap and across
// availability patterns, every field agrees bit for bit.
func TestFleetMatchesDenseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		n := int(64 * math.Pow(64, rng.Float64())) // 64 to 4096, log-uniform
		g := randomFleet(rng, n)
		fleet, err := NewFleet(g)
		if err != nil {
			t.Fatal(err)
		}
		unclustered := unclusteredFleet(g)
		for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
			rhoCap := 0.0
			if rng.Intn(2) == 1 {
				rhoCap = 0.9
			}
			lambda := (0.1 + 0.7*rng.Float64()) * g.MaxGenericRate()
			for kind, up := range upVectors(rng, fleet) {
				label := fmt.Sprintf("n=%d/%v/cap=%g/%s", n, d, rhoCap, kind)
				opts := Options{Discipline: d, MaxUtilization: rhoCap}
				want, err := unclustered.OptimizeDegraded(lambda, tallyOf(t, unclustered, up), opts)
				if err != nil {
					t.Fatalf("%s: unclustered: %v", label, err)
				}
				tally := tallyOf(t, fleet, up)
				got, err := fleet.OptimizeDegraded(lambda, tally, opts)
				if err != nil {
					t.Fatalf("%s: clustered: %v", label, err)
				}
				if diff := sameDegraded(want, got); diff != "" {
					t.Errorf("%s: %s", label, diff)
				}
				checkCompact(t, label, &got.Result)
				if ceiling := fleet.AdmissionCeiling(tally, Options{MaxUtilization: rhoCap}); got.Shed > 0 && got.Admitted != ceiling {
					t.Errorf("%s: shed to %v, admission ceiling %v", label, got.Admitted, ceiling)
				}
			}
		}
	}
}

// TestFleetReuseIsStateless solves a sequence of re-plans on one Fleet,
// then the first input again: the Fleet carries nothing from one solve
// to the next, so the bits repeat.
func TestFleetReuseIsStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := clusteredFleet(2048, 40)
	fleet, err := NewFleet(g)
	if err != nil {
		t.Fatal(err)
	}
	ups := upVectors(rng, fleet)
	opts := Options{Discipline: queueing.FCFS}
	first, err := fleet.OptimizeDegraded(0.4*g.MaxGenericRate(), tallyOf(t, fleet, ups["random"]), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := first
	for k, frac := range []float64{0.7, 0.2, 0.55, 0.9, 0.3} {
		opts.WarmPhi = res.Phi
		opts.MaxUtilization = 0.9 * float64(k%2)
		if res, err = fleet.OptimizeDegraded(frac*g.MaxGenericRate(), tallyOf(t, fleet, ups[[]string{"nil", "class down", "single"}[k%3]]), opts); err != nil {
			t.Fatal(err)
		}
	}
	again, err := fleet.OptimizeDegraded(0.4*g.MaxGenericRate(), tallyOf(t, fleet, ups["random"]), Options{Discipline: queueing.FCFS})
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameDegraded(first, again); diff != "" {
		t.Errorf("re-solve after a sequence: %s", diff)
	}
}

// TestFleetConcurrentSolves runs solves on one Fleet from several
// goroutines (run it under -race): each must equal the same solve run
// alone.
func TestFleetConcurrentSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := clusteredFleet(1024, 24)
	fleet, err := NewFleet(g)
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		lambda float64
		up     *Tally
		opts   Options
	}
	var inputs []input
	for kind, up := range upVectors(rng, fleet) {
		for _, rhoCap := range []float64{0, 0.9} {
			d := queueing.FCFS
			if kind == "random" {
				d = queueing.Priority
			}
			inputs = append(inputs, input{(0.2 + 0.6*rng.Float64()) * g.MaxGenericRate(), tallyOf(t, fleet, up), Options{Discipline: d, MaxUtilization: rhoCap}})
		}
	}
	want := make([]*DegradedResult, len(inputs))
	for k, in := range inputs {
		if want[k], err = fleet.OptimizeDegraded(in.lambda, in.up, in.opts); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for k := range inputs {
					in := inputs[(k+w)%len(inputs)]
					got, err := fleet.OptimizeDegraded(in.lambda, in.up, in.opts)
					if err != nil {
						t.Error(err)
						return
					}
					if diff := sameDegraded(want[(k+w)%len(inputs)], got); diff != "" {
						t.Errorf("goroutine %d, input %d: %s", w, (k+w)%len(inputs), diff)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTallyMatchesRecount sets random stations up and down on a tally
// and requires, after every step, the tally a fresh count of its
// vector gives; a clone changes independently of its original.
func TestTallyMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fleet, err := NewFleet(clusteredFleet(500, 17))
	if err != nil {
		t.Fatal(err)
	}
	tally, err := fleet.NewTally(nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2000; step++ {
		i, up := rng.Intn(fleet.N()), rng.Intn(3) != 0
		was := tally.IsUp(i)
		if changed := tally.Set(i, up); changed != (was != up) {
			t.Fatalf("step %d: Set(%d, %t) on %t reported changed %t", step, i, up, was, changed)
		}
		fresh, err := fleet.NewTally(tally.Up())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tally, fresh) {
			t.Fatalf("step %d: kept tally (%d up) differs from a recount (%d up)", step, tally.Survivors(), fresh.Survivors())
		}
	}
	clone := tally.Clone()
	i := slices.Index(tally.Up(), true)
	clone.Set(i, false)
	if !tally.IsUp(i) || tally.Survivors() != clone.Survivors()+1 {
		t.Errorf("setting a clone's station %d down moved the original", i)
	}
	if _, err := fleet.NewTally(make([]bool, 3)); err == nil {
		t.Error("NewTally accepted a vector of the wrong length")
	}
}

// TestOptimizeDegradedEchoesUp pins the availability echo: the Fleet's
// solve echoes its tally's vector, or nil when every station is up;
// the free OptimizeDegraded echoes a copy of any vector it is given.
func TestOptimizeDegradedEchoesUp(t *testing.T) {
	g := clusteredFleet(200, 9)
	fleet, err := NewFleet(g)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 0.5 * g.MaxGenericRate()
	all := make([]bool, g.N())
	for i := range all {
		all[i] = true
	}
	one := slices.Clone(all)
	one[7] = false
	for _, tc := range []struct {
		name string
		up   []bool
		echo bool
	}{{"nil", nil, false}, {"all up", all, false}, {"one down", one, true}} {
		tally := tallyOf(t, fleet, tc.up)
		res, err := fleet.OptimizeDegraded(lambda, tally, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Up != nil; got != tc.echo {
			t.Errorf("%s: Fleet echo present %t, want %t", tc.name, got, tc.echo)
		}
		if tc.echo && &res.Up[0] != &tally.Up()[0] {
			t.Errorf("%s: Fleet echo is not the tally's vector", tc.name)
		}
		free, err := OptimizeDegraded(g, lambda, tc.up, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(free.Up, tc.up) || (free.Up == nil) != (tc.up == nil) {
			t.Errorf("%s: free echo %v, want the vector given", tc.name, free.Up)
		}
		if tc.up != nil && &free.Up[0] == &tc.up[0] {
			t.Errorf("%s: free echo aliases the caller's vector", tc.name)
		}
	}
}

// TestAvgResponseTimeIsExactStationSum checks the per-class T′ total
// against its definition over the stations one by one: the correctly
// rounded Σ_i (λ′_i/λ′)·T′_i, with λ′ the correctly rounded Σ_i λ′_i.
func TestAvgResponseTimeIsExactStationSum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 6; trial++ {
		n := 64 + rng.Intn(2000)
		g := clusteredFleet(n, 1+rng.Intn(60))
		fleet, err := NewFleet(g)
		if err != nil {
			t.Fatal(err)
		}
		for kind, up := range upVectors(rng, fleet) {
			d := []queueing.Discipline{queueing.FCFS, queueing.Priority}[trial%2]
			res, err := fleet.OptimizeDegraded((0.05+0.85*rng.Float64())*g.MaxGenericRate(), tallyOf(t, fleet, up), Options{Discipline: d})
			if err != nil {
				t.Fatal(err)
			}
			var total, sum numeric.ExactSum
			total.AddSlice(res.Rates)
			lambda := total.Value()
			for i, r := range res.Rates {
				if r != 0 {
					sum.Add(r / lambda * res.ResponseTimes[i])
				}
			}
			if got, want := res.AvgResponseTime, sum.Value(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d %v %s: T′ %v, station-order exact sum %v", n, d, kind, got, want)
			}
		}
	}
}

// TestNewFleetClusters checks the index itself: classes in order of
// first appearance, bit-exact signatures, and a rejected group.
func TestNewFleetClusters(t *testing.T) {
	g := clusteredFleet(300, 37)
	// A speed one ulp away is a different class.
	g.Servers[299].Speed = math.Nextafter(g.Servers[299].Speed, 2)
	fleet, err := NewFleet(g)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.N() != 300 || len(fleet.classes) != 38 {
		t.Fatalf("N %d, classes %d; want 300 and 38", fleet.N(), len(fleet.classes))
	}
	for i, c := range fleet.classOf {
		if want := i % 37; i < 299 && int(c) != want {
			t.Fatalf("station %d in class %d, want %d", i, c, want)
		}
	}
	if c := fleet.classOf[299]; c != 37 {
		t.Errorf("perturbed station in class %d, want 37", c)
	}
	total := 0
	for _, k := range fleet.counts {
		total += k
	}
	if total != 300 {
		t.Errorf("class counts total %d", total)
	}
	bad := &model.Group{Servers: []model.Server{{Size: 0, Speed: 1}}, TaskSize: 1}
	if _, err := NewFleet(bad); err == nil {
		t.Error("NewFleet accepted an invalid group")
	}
	if _, err := NewFleet(nil); err == nil {
		t.Error("NewFleet accepted a nil group")
	}
}
