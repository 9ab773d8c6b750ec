package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/serve"
	"repro/internal/trace"
)

// route-http drives the shipped read path: two keep-alive connections
// post /v1/dispatch in a closed loop, as bladed's callers do (each waits
// for its routing answer). The daemon serves the paper's static split
// on Example 1 at Table 1's point; each answer routes one arrival of a
// Poisson trace onto the FCFS blade emulation, so the realized T′ of
// the served decisions is measured in the paper's units and checked
// against the analytic optimum.

const (
	// analyticT is Table 1's optimal T′ at λ′ = 0.5 × saturation.
	analyticT    = 0.8964703
	routeCallers = 2
	// respTolerance bounds the realized mean and p95 against their
	// analytic values on route-http.
	respTolerance = 0.05
	// closureTolerance bounds how far the self-time medians along the
	// blocking path may sum from the untraced median latency.
	closureTolerance = 0.25
)

// paperCluster is the paper's Example 1 cluster at Table 1's operating
// point.
func paperCluster() (*model.Group, float64, core.Options) {
	g := model.LiExample1Group()
	return g, 0.5 * g.MaxGenericRate(), core.Options{Discipline: queueing.FCFS}
}

// routeFeeder hands generic arrivals to the callers in trace order and
// admits every task to the blade emulation in trace order, holding back
// behind a generic arrival whose routing answer has not come back.
type routeFeeder struct {
	mu       sync.Mutex
	arrivals *arrivalStream
	clock    *virtualClock
	emu      *fcfsBlades
	plan     func() *serve.Plan
	window   []routeTask // taken from the loop, not yet admitted
	first    uint64      // sequence number of window[0]
	collect  bool        // record ops, latency and response times
	stats    *respStats
	lat      *latencyWindows // nil outside the untraced timed phase
	ops      int64
	failed   int64
	seen     int64 // successful dispatch answers, over the daemon's life
	// stale counts answers whose plan was swapped out before the check,
	// so only their station's range could be checked; firstErr is the
	// first failed answer.
	stale    int64
	firstErr error
	benchNs  int64 // time spent in take and done (traced phase)
}

type routeTask struct {
	a       trace.Arrival
	station int // routed station; routePending until answered, routeLost on failure
}

const (
	routePending = -1
	routeLost    = -2
)

// take returns the sequence number of the next generic arrival and moves
// the daemon's clock to its arrival time.
func (f *routeFeeder) take() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		a := f.arrivals.nextArrival()
		t := routeTask{a: a, station: a.Station}
		if a.IsGeneric() {
			t.station = routePending
		}
		f.window = append(f.window, t)
		if a.IsGeneric() {
			f.clock.advanceTo(a.Time)
			return f.first + uint64(len(f.window)-1)
		}
	}
}

// done records the answer for arrival seq (err when the request failed)
// and admits every task whose turn has come.
func (f *routeFeeder) done(seq uint64, resp serve.DispatchResponse, rtt time.Duration, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		f.seen++
		// A decision must land on a station the plan that made it loads.
		switch p := f.plan(); {
		case resp.Station < 0 || resp.Station >= len(p.Rates):
			err = fmt.Errorf("station %d out of range", resp.Station)
		case p.Version != resp.PlanVersion:
			f.stale++
		case p.Rates[resp.Station] <= 0:
			err = fmt.Errorf("station %d carries no load in plan v%d", resp.Station, p.Version)
		}
	}
	station := resp.Station
	if err != nil {
		station = routeLost
		if f.firstErr == nil {
			f.firstErr = err
		}
	}
	f.window[seq-f.first].station = station
	if f.collect {
		f.ops++
		if err != nil {
			f.failed++
		}
		if f.lat != nil {
			f.lat.add(time.Now(), float64(rtt.Nanoseconds())/1e6)
		}
	}
	for len(f.window) > 0 && f.window[0].station != routePending {
		t := f.window[0]
		f.window = f.window[1:]
		f.first++
		if t.station == routeLost {
			continue
		}
		dep := f.emu.admit(t.station, t.a.Time, t.a.Requirement)
		if f.collect && t.a.IsGeneric() {
			f.stats.add(dep - t.a.Time)
		}
	}
}

// routeRun is one route-http run's live state.
type routeRun struct {
	d     *daemon
	feed  *routeFeeder
	spans *spanLog // nil when untraced
	ids   atomic.Uint64
	gate  sync.RWMutex // held for reading across each call; see startPhase
}

// call makes one dispatch round trip for the next arrival.
func (w *routeRun) call(traced bool) {
	w.gate.RLock()
	defer w.gate.RUnlock()
	t0 := time.Now()
	seq := w.feed.take()
	var id uint64
	if traced {
		id = w.ids.Add(1)
	}
	start := time.Now()
	status, body, err := w.d.do(http.MethodPost, "/v1/dispatch", nil, id)
	var resp serve.DispatchResponse
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST /v1/dispatch: status %d: %s", status, body)
	}
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	end := time.Now()
	if traced {
		w.spans.add("client", id, start, end)
	}
	w.feed.done(seq, resp, end.Sub(start), err)
	if traced {
		atomic.AddInt64(&w.feed.benchNs, int64(start.Sub(t0)+time.Since(end)))
	}
}

// loop runs the closed loop from routeCallers goroutines until stop
// reports true.
func (w *routeRun) loop(stop func() bool, traced bool) {
	var wg sync.WaitGroup
	for c := 0; c < routeCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop() {
				w.call(traced)
			}
		}()
	}
	wg.Wait()
}

func runRouteHTTP(p runParams, r *results) error {
	g, lambda, opts := paperCluster()
	var spans *spanLog
	var wrap func(http.Handler) http.Handler
	if p.trace {
		spans = newSpanLog()
		wrap = func(h http.Handler) http.Handler { return spans.middleware("handler", h) }
	}
	cfg := serve.Config{Group: g, Lambda: lambda, Opts: opts, Seed: p.seed}

	// Set-up: the daemon with its start-up solve, handler, listener, and
	// the first request to each endpoint the run uses.
	var d *daemon
	var clock *virtualClock
	setup := func() (time.Duration, error) {
		if d != nil {
			d.stop()
		}
		clock = &virtualClock{}
		c := cfg
		c.Now = clock.Now
		t0 := time.Now()
		var err error
		if d, err = startDaemon(c, routeCallers, wrap); err != nil {
			return 0, err
		}
		status, _, err := d.do(http.MethodPost, "/v1/dispatch", nil, 0)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("first dispatch: status %d: %v", status, err)
		}
		if _, err := d.counters(); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}
	setups, err := repeatSetups(101, 2*time.Second, setup)
	if err != nil {
		return err
	}
	defer d.stop()
	reportSetup(r, setups)

	feed := &routeFeeder{
		arrivals: newPoissonStream(g, lambda, p.seed), clock: clock, emu: newFCFSBlades(g), plan: d.srv.Plan,
		stats: newRespStats(p.seed), seen: 1,
	}
	w := &routeRun{d: d, feed: feed, spans: spans}

	// Warm-up: at least one estimator window of virtual time, so the
	// timed phase sees a warm estimator and loaded blades.
	warmUntil := clockEpoch.Add(35 * time.Second)
	w.loop(func() bool { return !clock.Now().Before(warmUntil) }, false)

	feed.mu.Lock()
	feed.collect = true
	feed.lat = newLatencyWindows(p.seed, p.timed())
	feed.mu.Unlock()
	deadline := time.Now().Add(p.timed())
	meter := startPhase(&w.gate)
	w.loop(func() bool { return !time.Now().Before(deadline) }, false)
	ph := meter.stop()
	feed.mu.Lock()
	feed.collect = false
	ops, failed, lat := feed.ops, feed.failed, feed.lat
	feed.lat = nil
	feed.mu.Unlock()
	r.attempted, r.failed = ops, failed

	r.set("cpu_us_per_op", ph.cpuPerOpUS(ph.cpu, ops), "us", joinNotes("ops", ops, "cpu_s", fmt.Sprintf("%.3f", ph.cpu.Seconds()))+"; "+ph.speedNote())
	measuredP50 := lat.set(r, "POST /v1/dispatch", ph)
	r.set("task_resp_mean", feed.stats.mean.Mean(), "rbar", fmt.Sprintf("realized; n=%d", feed.stats.mean.Count()))
	r.set("task_resp_p95", feed.stats.p95(), "rbar", "realized; "+feed.stats.sample.note())
	reportPhase(r, ph, ops)

	plan := d.srv.Plan()
	p95, err := core.GroupGenericQuantile(g, plan.Rates, 0.95)
	if err != nil {
		return err
	}
	r.gate("task_resp_mean", relDiff(feed.stats.mean.Mean(), analyticT) <= respTolerance,
		"realized %.5f vs analytic T′ %.7f (tolerance ±%.0f%%)", feed.stats.mean.Mean(), analyticT, 100*respTolerance)
	r.gate("task_resp_p95", relDiff(feed.stats.p95(), p95) <= respTolerance,
		"realized %.5f vs analytic p95 %.5f (tolerance ±%.0f%%)", feed.stats.p95(), p95, 100*respTolerance)
	r.gate("positive_rate_station", failed == 0, "%d of %d decisions failed or landed off the plan's loaded stations (first: %v; %d checked for range only, their plan swapped out)",
		failed, ops, feed.firstErr, feed.stale)

	if p.trace {
		feed.mu.Lock()
		feed.collect = true
		feed.ops, feed.failed = 0, 0
		feed.mu.Unlock()
		spans.on.Store(true)
		deadline := time.Now().Add(p.timed())
		meter := startPhase(&w.gate)
		w.loop(func() bool { return !time.Now().Before(deadline) }, true)
		tph := meter.stop()
		spans.on.Store(false)
		feed.mu.Lock()
		feed.collect = false
		tops := feed.ops
		r.attempted += feed.ops
		r.failed += feed.failed
		feed.mu.Unlock()
		untracedUS := ph.cpuPerOpUS(ph.cpu, ops)
		r.layer("bench.trace_overhead_pct", 100*(tph.cpuPerOpUS(tph.cpu, tops)-untracedUS)/untracedUS,
			joinNotes("traced_ops", tops, "untraced_ops", ops))
		r.layer("bench.self_us_per_op", float64(atomic.LoadInt64(&feed.benchNs))/1e3/float64(tops),
			"feeder and emulation time per traced op; "+fmt.Sprintf("ops=%d", tops))
		if err := routeLayers(r, spans, g, lambda, opts, p.seed, measuredP50*1e3); err != nil {
			return err
		}
		spans.write("route-http", p.seed)
	}

	c, err := d.counters()
	if err != nil {
		return err
	}
	feed.mu.Lock()
	seen := feed.seen
	feed.mu.Unlock()
	r.gate("dispatch_total", int64(c["bladed_dispatch_total"]) == seen,
		"bladed_dispatch_total %d vs %d decisions the client saw", int64(c["bladed_dispatch_total"]), seen)
	if p.trace {
		reportDaemonCounters(r, c)
		kkt, err := core.KKTResidual(g, opts.Discipline, plan.Rates)
		if err != nil {
			return err
		}
		r.layer("core.kkt_residual_max", kkt, fmt.Sprintf("live plan v%d", plan.Version))
		r.fillBypassed()
	}
	r.set("peak_rss_mb", peakRSSMB(), "MB", "process peak RSS")
	return nil
}

// routeLayers derives route-http's per-layer metrics from the traced
// phase's spans and from direct passes over the layers' public calls.
func routeLayers(r *results, spans *spanLog, g *model.Group, lambda float64, opts core.Options, seed int64, untracedP50US float64) error {
	spans.link("handler", "client")
	netSelf := spans.selfTimes("client")
	handler := spans.durations("handler")
	if len(netSelf) == 0 || len(handler) == 0 {
		return fmt.Errorf("traced phase recorded no spans")
	}

	// serve.kernel: Decide on a fresh daemon, replaying the run's
	// arrivals on its virtual clock.
	clock := &virtualClock{}
	srv, err := serve.New(serve.Config{Group: g, Lambda: lambda, Opts: opts, Seed: seed, Now: clock.Now, Logger: quietLogger})
	if err != nil {
		return err
	}
	defer srv.Close()
	const perBlock, blocks = 64, 2048
	arrivals := newPoissonStream(g, lambda, seed)
	gen := make([]float64, 0, perBlock*blocks)
	for len(gen) < cap(gen) {
		if a := arrivals.nextArrival(); a.IsGeneric() {
			gen = append(gen, a.Time)
		}
	}
	decideNs := blockTimer(blocks, perBlock, func(i int) {
		clock.advanceTo(gen[i])
		srv.Decide()
	})
	allocs, _ := allocsPer(4096, func(int) { srv.Decide() })
	r.layer("serve.kernel.decide_ns", decideNs, fmt.Sprintf("median over %d blocks of %d Decide calls", blocks, perBlock))
	r.layer("serve.kernel.allocs_per_decision", allocs, "over 4096 Decide calls")

	// serve.http: the handler alone, on in-memory requests.
	h := srv.Handler()
	httpAllocs, httpBytes := allocsPer(2000, func(int) {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/dispatch", nil))
	})
	r.layer("serve.http.allocs_per_req", httpAllocs, "direct ServeHTTP of POST /v1/dispatch incl. the in-memory request; n=2000")
	r.layer("serve.http.bytes_per_req", httpBytes, "same pass; n=2000")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/dispatch", nil))
	r.layer("serve.http.resp_bytes", float64(rec.Body.Len()), "POST /v1/dispatch body")

	plan := srv.Plan()
	us := uniforms(seed, 1<<14)
	pickNs := blockTimer(256, 1024, func(i int) { plan.PickU(us[i&(len(us)-1)]) })
	r.layer("dispatch.pick_ns", pickNs, "Plan.PickU; median over 256 blocks of 1024")

	solveMS := solveTimes(30, func() error {
		_, err := core.OptimizeDegraded(g, lambda, nil, opts)
		return err
	})
	r.layer("core.solve_ms", median(solveMS), fmt.Sprintf("core.OptimizeDegraded, start-up inputs; median of %d", len(solveMS)))

	netUS := median(netSelf) / 1e3
	httpUS := median(handler)/1e3 - decideNs/1e3
	r.layer("net.self_us", netUS, fmt.Sprintf("client span - handler span; median of %d", len(netSelf)))
	r.layer("serve.http.self_us", httpUS, fmt.Sprintf("handler span - serve.kernel.decide_ns; median of %d", len(handler)))
	closure(map[string]float64{"net": netUS, "serve.http": httpUS, "serve.kernel": decideNs / 1e3}, untracedP50US, closureTolerance)
	return nil
}
