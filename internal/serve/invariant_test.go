package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/queueing"
)

// newInvariantServer builds a daemon over 96 stations in 12 classes of
// 8, with fast breaker cycles on the fake clock, and stops its
// background resolver and scanner, so the test alone moves the plan:
// every scan and re-solve below is a direct call.
func newInvariantServer(t *testing.T, clk *fakeClock) (*Server, float64) {
	t.Helper()
	const n = 96
	sizes, speeds := make([]int, n), make([]float64, n)
	for i := range sizes {
		sizes[i] = 2 + 2*(i%4)
		speeds[i] = 1.6 - 0.2*float64(i%3)
	}
	g, err := model.PaperGroup(sizes, speeds, 1.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 0.4 * g.MaxGenericRate()
	s, err := New(Config{
		Group: g, Lambda: lambda, Opts: core.Options{Discipline: queueing.FCFS},
		Now: clk.Now, Window: time.Hour, MinResolveInterval: time.Hour, Logger: quietLogger(),
		Breaker: BreakerConfig{
			OpenInterval: time.Second, MaxOpenInterval: 4 * time.Second,
			RampWindow: 3 * time.Second, TrialSuccesses: 3,
			ScanInterval: time.Hour, PhiThreshold: 1e12,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	return s, lambda
}

// checkCounts recounts the breaker exceptions and the operator tally
// afresh and fails on any difference from the kept ones.
func checkCounts(t *testing.T, s *Server, label string) {
	t.Helper()
	var notClosed, ramping int64
	for i := range s.breakers.stations {
		st := &s.breakers.stations[i]
		if st.state.Load() != breakerClosed {
			notClosed++
		}
		if st.rampStart.Load() > 0 {
			ramping++
		}
	}
	if got := s.breakers.notClosed.Load(); got != notClosed {
		t.Fatalf("%s: %d breakers counted not closed, %d are", label, got, notClosed)
	}
	if got := s.breakers.ramping.Load(); got != ramping {
		t.Fatalf("%s: %d ramps counted, %d run", label, got, ramping)
	}
	s.mu.Lock()
	kept := s.tally.Clone()
	s.mu.Unlock()
	fresh, err := s.fleet.NewTally(kept.Up())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kept, fresh) {
		t.Fatalf("%s: the kept tally (%d up) differs from a recount (%d up)", label, kept.Survivors(), fresh.Survivors())
	}
}

// freshOverlay is the availability a re-solve must see, worked out
// without the kept counts: the operator vector counted afresh and
// every breaker walked.
func freshOverlay(t *testing.T, s *Server) (*core.Tally, []float64) {
	t.Helper()
	s.mu.Lock()
	up := slices.Clone(s.tally.Up())
	s.mu.Unlock()
	var excluded []int
	var ramp []float64
	now := s.now()
	for i := range up {
		if up[i] && s.breakers.rejects(i) {
			up[i] = false
			excluded = append(excluded, i)
		}
		if f := s.rampFactor(i, now); f < 1 {
			if ramp == nil {
				ramp = make([]float64, len(up))
				for j := range ramp {
					ramp[j] = 1
				}
			}
			ramp[i] = f
		}
	}
	if !slices.Contains(up, true) {
		for _, i := range excluded {
			up[i] = true
		}
	}
	tally, err := s.fleet.NewTally(up)
	if err != nil {
		t.Fatal(err)
	}
	return tally, ramp
}

// samePlan reports the first field in which two plans differ, bit for
// bit, or "" when they agree.
func samePlan(a, b *Plan) string {
	floats := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) }) &&
			(x == nil) == (y == nil)
	}
	for _, f := range []struct {
		name string
		x, y float64
	}{
		{"lambda", a.Lambda, b.Lambda}, {"phi", a.Phi, b.Phi}, {"T′", a.AvgResponseTime, b.AvgResponseTime},
		{"capacity", a.Capacity, b.Capacity}, {"admitted", a.Admitted, b.Admitted}, {"shed", a.Shed, b.Shed},
	} {
		if math.Float64bits(f.x) != math.Float64bits(f.y) {
			return fmt.Sprintf("%s %v vs %v", f.name, f.x, f.y)
		}
	}
	switch {
	case a.Version != b.Version || a.Survivors != b.Survivors || a.Policy != b.Policy:
		return fmt.Sprintf("version/survivors/policy %d/%d/%s vs %d/%d/%s",
			a.Version, a.Survivors, a.Policy, b.Version, b.Survivors, b.Policy)
	case !floats(a.Rates, b.Rates):
		return "rates"
	case !floats(a.Utilizations, b.Utilizations):
		return "utilizations"
	case !floats(a.Ramp, b.Ramp):
		return "ramp"
	case !slices.Equal(a.Up, b.Up) || (a.Up == nil) != (b.Up == nil):
		return "up"
	}
	return ""
}

// checkResolve runs doResolve at lambda and requires its plan to equal,
// bit for bit, the plan built from a freshly counted tally and a full
// breaker walk, warm-started from the same plan. It reports whether
// the plan carries a ramp.
func checkResolve(t *testing.T, s *Server, lambda float64, label string) bool {
	t.Helper()
	cur := s.Plan()
	tally, ramp := freshOverlay(t, s)
	opts := s.cfg.Opts
	opts.WarmPhi = cur.Phi
	want, wantErr := buildPlan(s.fleet, lambda, tally, opts, cur.Version+1, s.now(), ramp, s.jsqD, s.depths)
	got, err := s.doResolve(resolveReq{lambda: lambda, reason: "check"})
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: doResolve error %v, fresh solve error %v", label, err, wantErr)
	}
	if err != nil {
		return false
	}
	if diff := samePlan(got, want); diff != "" {
		t.Fatalf("%s: published plan differs from the freshly counted one: %s", label, diff)
	}
	if got.Up != nil && got.Survivors == s.group.N() {
		t.Fatalf("%s: an all-up plan echoes up", label)
	}
	return got.Ramp != nil
}

// postHealth answers an operator POST /v1/health without the test's
// goroutine-bound failure helpers, so concurrent actors can use it.
func postHealth(h http.Handler, station int, up bool) int {
	w := httptest.NewRecorder()
	body := fmt.Sprintf(`{"station": %d, "up": %t}`, station, up)
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/health", bytes.NewReader([]byte(body))))
	return w.Code
}

// TestBreakerCountsAndTallyMatchRecount drives seeded sequences of
// breaker and operator events on the fake clock: error bursts that the
// next scan trips on, half-open moves, trial closes that start ramps,
// ramp ends, failed probes reopening through ReportOutcome, operator
// pins, unpins and flips through POST /v1/health. After every step the
// exception counts and the operator tally equal a full recount, and
// doResolve's plan equals, bit for bit, the plan solved from a freshly
// counted tally.
func TestBreakerCountsAndTallyMatchRecount(t *testing.T) {
	for _, seed := range []int64{1, 2, 20261019} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			clk := newFakeClock()
			s, lambda := newInvariantServer(t, clk)
			h := s.Handler()
			rng := rand.New(rand.NewSource(seed))
			n := s.group.N()
			seen := map[string]int{}
			steps := 300
			if testing.Short() {
				steps = 100
			}
			for step := 0; step < steps; step++ {
				var what string
				switch op := rng.Intn(8); op {
				case 0, 1:
					what = "errors"
					i := rng.Intn(n)
					for k := 0; k < 12; k++ {
						clk.Advance(time.Millisecond)
						s.recordOutcome(i, OutcomeError, 0.001)
					}
				case 2:
					what = "scan"
					clk.Advance(time.Duration(rng.Intn(1500)) * time.Millisecond)
					s.healthScan(clk.Now())
				case 3:
					what = "long scan"
					clk.Advance(time.Duration(1+rng.Intn(4)) * time.Second)
					s.healthScan(clk.Now())
				case 4:
					what = "trial successes"
					if ts := s.breakers.trial.Load(); ts >= 0 {
						for k := 0; k < s.cfg.Breaker.TrialSuccesses; k++ {
							s.recordOutcome(int(ts), OutcomeSuccess, 0.001)
						}
						clk.Advance(time.Millisecond)
						s.healthScan(clk.Now())
						if s.breakers.stations[ts].rampStart.Load() > 0 {
							seen["ramp started"]++
						}
					}
				case 5:
					what = "failed probe"
					if ts := s.breakers.trial.Load(); ts >= 0 {
						if err := s.ReportOutcome(int(ts), OutcomeError, time.Millisecond); err != nil {
							t.Fatal(err)
						}
						if s.breakers.stations[ts].state.Load() == breakerOpen {
							seen["reopened"]++
						}
					}
				default:
					i, up := rng.Intn(n), rng.Intn(3) != 0
					what = fmt.Sprintf("operator up=%t", up)
					if code := postHealth(h, i, up); code != http.StatusAccepted {
						t.Fatalf("POST /v1/health: status %d", code)
					}
				}
				seen[what]++
				label := fmt.Sprintf("step %d (%s)", step, what)
				checkCounts(t, s, label)
				if s.breakers.exceptions() == 0 {
					seen["no exceptions"]++
				}
				if checkResolve(t, s, lambda, label) {
					seen["ramped plan"]++
				}
			}
			trips := int64(0)
			for i := range s.breakers.stations {
				trips += s.breakers.stations[i].trips.Load()
			}
			t.Logf("trips %d, steps %v", trips, seen)
			for _, want := range []string{"ramp started", "reopened", "ramped plan", "no exceptions", "operator up=false", "operator up=true"} {
				if seen[want] == 0 {
					t.Errorf("the sequence never saw %q", want)
				}
			}
		})
	}
}

// TestBreakerCountsUnderConcurrency runs scans, outcome reports,
// operator flips, re-solves and decisions at once (run it under -race),
// then sweeps the invariants of TestBreakerCountsAndTallyMatchRecount
// once: concurrent transitions leave the counts and the tally equal to
// a recount, and the next re-solve equal to a freshly counted one.
func TestBreakerCountsUnderConcurrency(t *testing.T) {
	clk := newFakeClock()
	s, lambda := newInvariantServer(t, clk)
	h := s.Handler()
	n := s.group.N()
	rounds := 1000
	if testing.Short() {
		rounds = 200
	}
	var wg sync.WaitGroup
	actor := func(seed int64, act func(rng *rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				act(rng)
			}
		}()
	}
	actor(1, func(rng *rand.Rand) {
		clk.Advance(time.Duration(rng.Intn(800)) * time.Millisecond)
		s.healthScan(clk.Now())
	})
	for w := int64(0); w < 4; w++ {
		actor(10+w, func(rng *rand.Rand) {
			i, kind := rng.Intn(n), OutcomeSuccess
			if i%3 == 0 || rng.Intn(4) == 0 {
				kind = OutcomeError
			}
			if ts := s.breakers.trial.Load(); ts >= 0 && rng.Intn(2) == 0 {
				i = int(ts)
			}
			for k := 0; k < 4; k++ {
				if err := s.ReportOutcome(i, kind, time.Millisecond); err != nil {
					t.Error(err)
				}
			}
		})
	}
	actor(20, func(rng *rand.Rand) {
		if code := postHealth(h, rng.Intn(n), rng.Intn(3) != 0); code != http.StatusAccepted {
			t.Errorf("POST /v1/health: status %d", code)
		}
	})
	actor(30, func(*rand.Rand) {
		if _, err := s.doResolve(resolveReq{lambda: lambda, reason: "race"}); err != nil {
			t.Error(err)
		}
	})
	actor(40, func(*rand.Rand) {
		for k := 0; k < 10; k++ {
			s.Decide()
		}
	})
	wg.Wait()
	checkCounts(t, s, "after the concurrent phase")
	checkResolve(t, s, lambda, "after the concurrent phase")
}

// TestPlanOmitsUpWhenAllUp checks the plan body's up echo: GET and
// POST /v1/plan omit it exactly when every station is up, and carry it
// while an operator holds a station down.
func TestPlanOmitsUpWhenAllUp(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MinResolveInterval = time.Hour })
	h := s.Handler()
	check := func(label string, wantUp bool) {
		t.Helper()
		for _, w := range []*httptest.ResponseRecorder{
			postJSON(t, h, "/v1/plan", map[string]float64{"lambda": 0}),
			getPath(t, h, "/v1/plan"),
		} {
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", label, w.Code, w.Body)
			}
			if got := bytes.Contains(w.Body.Bytes(), []byte(`"up":`)); got != wantUp {
				t.Fatalf("%s: body carries up %t, want %t: %s", label, got, wantUp, w.Body)
			}
		}
	}
	check("all up", false)
	if w := postJSON(t, h, "/v1/health", map[string]any{"station": 3, "up": false}); w.Code != http.StatusAccepted {
		t.Fatalf("pin status %d", w.Code)
	}
	check("station 3 down", true)
	if p := s.Plan(); len(p.Up) != s.group.N() || p.Up[3] {
		t.Fatalf("plan up echo %v, want station 3 down", p.Up)
	}
	if w := postJSON(t, h, "/v1/health", map[string]any{"station": 3, "up": true}); w.Code != http.StatusAccepted {
		t.Fatalf("unpin status %d", w.Code)
	}
	check("all up again", false)
}
