package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/model"
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
				want, err := unclustered.OptimizeDegraded(lambda, up, opts)
				if err != nil {
					t.Fatalf("%s: unclustered: %v", label, err)
				}
				got, err := fleet.OptimizeDegraded(lambda, up, opts)
				if err != nil {
					t.Fatalf("%s: clustered: %v", label, err)
				}
				if diff := sameDegraded(want, got); diff != "" {
					t.Errorf("%s: %s", label, diff)
				}
				checkCompact(t, label, &got.Result)
				if ceiling := fleet.AdmissionCeiling(up, Options{MaxUtilization: rhoCap}); got.Shed > 0 && got.Admitted != ceiling {
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
	first, err := fleet.OptimizeDegraded(0.4*g.MaxGenericRate(), ups["random"], opts)
	if err != nil {
		t.Fatal(err)
	}
	res := first
	for k, frac := range []float64{0.7, 0.2, 0.55, 0.9, 0.3} {
		opts.WarmPhi = res.Phi
		opts.MaxUtilization = 0.9 * float64(k%2)
		if res, err = fleet.OptimizeDegraded(frac*g.MaxGenericRate(), ups[[]string{"nil", "class down", "single"}[k%3]], opts); err != nil {
			t.Fatal(err)
		}
	}
	again, err := fleet.OptimizeDegraded(0.4*g.MaxGenericRate(), ups["random"], Options{Discipline: queueing.FCFS})
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
		up     []bool
		opts   Options
	}
	var inputs []input
	for kind, up := range upVectors(rng, fleet) {
		for _, rhoCap := range []float64{0, 0.9} {
			d := queueing.FCFS
			if kind == "random" {
				d = queueing.Priority
			}
			inputs = append(inputs, input{(0.2 + 0.6*rng.Float64()) * g.MaxGenericRate(), up, Options{Discipline: d, MaxUtilization: rhoCap}})
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
