package main

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// recordingDispatcher routes like inner and remembers every pick.
type recordingDispatcher struct {
	inner sim.Dispatcher
	picks []int
}

func (d *recordingDispatcher) Name() string { return "recording" }

func (d *recordingDispatcher) Pick(views []sim.StationView, rng *rand.Rand) int {
	p := d.inner.Pick(views, rng)
	d.picks = append(d.picks, p)
	return p
}

func paperPoint(t *testing.T) (*model.Group, float64, []float64) {
	t.Helper()
	g := model.LiExample1Group()
	lambda := 0.5 * g.MaxGenericRate()
	res, err := core.Optimize(g, lambda, core.Options{Discipline: queueing.FCFS})
	if err != nil {
		t.Fatal(err)
	}
	return g, lambda, res.Rates
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// The emulation must place every task exactly where sim.Replay does: on
// the same trace and picks, per-station generic and special response
// statistics agree in count and, up to summation order, in mean.
func TestFCFSBladesReproducesReplay(t *testing.T) {
	g, lambda, rates := paperPoint(t)
	tr, err := trace.Generate(trace.Config{Group: g, GenericRate: lambda, Horizon: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := dispatch.NewProbabilistic(rates)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingDispatcher{inner: inner}
	const warmup = 100.0
	res, err := sim.Replay(sim.ReplayConfig{Group: g, Discipline: queueing.FCFS, Trace: tr,
		Dispatcher: rec, Warmup: warmup, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	emu := newFCFSBlades(g)
	perStation := make([]metrics.Welford, g.N())
	var special metrics.Welford
	k := 0
	for _, a := range tr.Arrivals {
		station := a.Station
		if a.IsGeneric() {
			station = rec.picks[k]
			k++
		}
		dep := emu.admit(station, a.Time, a.Requirement)
		if a.Time < warmup || dep > tr.Horizon {
			continue
		}
		if a.IsGeneric() {
			perStation[station].Add(dep - a.Time)
		} else {
			special.Add(dep - a.Time)
		}
	}
	if k != len(rec.picks) {
		t.Fatalf("used %d picks, replay made %d", k, len(rec.picks))
	}
	for i := range perStation {
		want := &res.PerStationGeneric[i]
		if perStation[i].Count() != want.Count() || !relClose(perStation[i].Mean(), want.Mean(), 1e-12) {
			t.Errorf("station %d: emulated n=%d mean=%.15g, replay n=%d mean=%.15g",
				i, perStation[i].Count(), perStation[i].Mean(), want.Count(), want.Mean())
		}
	}
	if special.Count() != res.SpecialResponse.Count() || !relClose(special.Mean(), res.SpecialResponse.Mean(), 1e-12) {
		t.Errorf("special: emulated n=%d mean=%.15g, replay n=%d mean=%.15g",
			special.Count(), special.Mean(), res.SpecialResponse.Count(), res.SpecialResponse.Mean())
	}
}

// Under the paper's optimal static split the emulated mean generic
// response time is the analytic T′ of Table 1.
func TestFCFSBladesStaticSplitMatchesAnalytic(t *testing.T) {
	g, lambda, rates := paperPoint(t)
	const analytic = 0.8964703
	tr, err := trace.Generate(trace.Config{Group: g, GenericRate: lambda, Horizon: 20000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	picker, err := dispatch.NewProbabilistic(rates)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	emu := newFCFSBlades(g)
	stats := newRespStats(1)
	for _, a := range tr.Arrivals {
		if !a.IsGeneric() {
			emu.admit(a.Station, a.Time, a.Requirement)
			continue
		}
		dep := emu.admit(picker.PickU(rng.Float64()), a.Time, a.Requirement)
		if a.Time >= 500 {
			stats.add(dep - a.Time)
		}
	}
	if got := stats.mean.Mean(); !relClose(got, analytic, 0.02) {
		t.Errorf("emulated T′ %.6f (n=%d), analytic %.7f", got, stats.mean.Count(), analytic)
	}
	p95, err := core.GroupGenericQuantile(g, rates, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.p95(); !relClose(got, p95, 0.03) {
		t.Errorf("emulated p95 %.5f, analytic %.5f", got, p95)
	}
}

func TestVirtualClockOnlyMovesForward(t *testing.T) {
	var c virtualClock
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.advanceTo(float64(i*4+w) * 0.001)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Now().Sub(clockEpoch).Seconds(); !relClose(got, 3.999, 1e-9) {
		t.Fatalf("clock reads %.9f s, want the largest time set, 3.999 s", got)
	}
	c.advanceTo(1)
	if got := c.Now().Sub(clockEpoch).Seconds(); !relClose(got, 3.999, 1e-9) {
		t.Fatalf("clock moved back to %.9f s", got)
	}
}

// The streams must sample the process trace.Generate and
// trace.GenerateMMPP sample: time-ordered arrivals at each stream's
// rate, Exp(r̄) requirements, and an MMPP that alternates around its
// mean rate with over-dispersed counts.
func TestArrivalStreamRates(t *testing.T) {
	g, lambda, _ := paperPoint(t)
	sat := g.MaxGenericRate()
	for _, tc := range []struct {
		name      string
		s         *arrivalStream
		rate      float64
		dispersed bool
	}{
		{"poisson", newPoissonStream(g, lambda, 3), lambda, false},
		{"mmpp", newMMPPStream(g, 0.85*sat, 0.15*sat, 3, 3, 3), 0.5 * sat, true},
	} {
		const horizon = 20000.0
		perStation := make([]int, g.N())
		var generic int
		var req metrics.Welford
		var window []float64 // generic counts per 10-unit window
		prev := 0.0
		for {
			a := tc.s.nextArrival()
			if a.Time < prev {
				t.Fatalf("%s: arrival at %g after %g", tc.name, a.Time, prev)
			}
			prev = a.Time
			if a.Time >= horizon {
				break
			}
			req.Add(a.Requirement)
			if !a.IsGeneric() {
				perStation[a.Station]++
				continue
			}
			generic++
			w := int(a.Time / 10)
			for len(window) <= w {
				window = append(window, 0)
			}
			window[w]++
		}
		if got := float64(generic) / horizon; !relClose(got, tc.rate, 0.02) {
			t.Errorf("%s: generic rate %.4f, want %.4f", tc.name, got, tc.rate)
		}
		for i, n := range perStation {
			if got, want := float64(n)/horizon, g.Servers[i].SpecialRate; !relClose(got, want, 0.05) {
				t.Errorf("%s: station %d special rate %.4f, want %.4f", tc.name, i, got, want)
			}
		}
		if !relClose(req.Mean(), g.TaskSize, 0.01) {
			t.Errorf("%s: mean requirement %.4f, want %.4f", tc.name, req.Mean(), g.TaskSize)
		}
		var counts metrics.Welford
		for _, c := range window {
			counts.Add(c)
		}
		dispersion := counts.Variance() / counts.Mean()
		if dispersed := dispersion > 2; dispersed != tc.dispersed {
			t.Errorf("%s: index of dispersion %.2f over 10-unit windows", tc.name, dispersion)
		}
	}
}

func TestCompletionHeapPopsInTimeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h completionHeap
	for i := 0; i < 1000; i++ {
		h.push(completion{t: rng.Float64()})
		if i%3 == 0 {
			h.pop()
		}
	}
	prev := -1.0
	for len(h) > 0 {
		c := h.pop()
		if c.t < prev {
			t.Fatalf("popped %g after %g", c.t, prev)
		}
		prev = c.t
	}
}
