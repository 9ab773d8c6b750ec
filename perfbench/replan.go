package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/queueing"
	"repro/internal/serve"
)

// replan-fleet measures operator reaction time at fleet scale: one
// connection posts /v1/plan to a 10,000-station daemon running the
// sparse solver (bladed -sparse), cycling λ′ through fleetFracs of
// saturation, and before every fleetFlipEvery-th re-plan an operator
// POST /v1/health takes a seeded station down or brings it back, which
// changes the survivor set and forces a re-solve of its own.

const (
	fleetSize      = 10000
	fleetFlipEvery = 4
	// kktTolerance bounds every published plan's KKT residual.
	kktTolerance = 1e-6
)

var fleetFracs = []float64{0.3, 0.4, 0.5, 0.6, 0.7}

// fleetGroup is the 56-class size/speed pattern of the repository's
// fleet benchmarks.
func fleetGroup() (*model.Group, error) {
	sizes := make([]int, fleetSize)
	speeds := make([]float64, fleetSize)
	for i := range sizes {
		sizes[i] = 2 + 2*(i%8)
		speeds[i] = 1.7 - 0.1*float64(i%7)
	}
	return model.PaperGroup(sizes, speeds, 1.0, 0.3)
}

// publishedPlan is the part of a POST /v1/plan body the checks read.
type publishedPlan struct {
	Version         int64     `json:"version"`
	Lambda          float64   `json:"lambda"`
	Rates           []float64 `json:"rates"`
	AvgResponseTime float64   `json:"avg_response_time"`
	Admitted        float64   `json:"admitted"`
	Shed            float64   `json:"shed"`
	Up              []bool    `json:"up"`
}

// survivors returns the stations marked up (all of them when up is nil)
// with their rates: the system a plan was solved over.
func survivors(g *model.Group, up []bool, rates []float64) (*model.Group, []float64) {
	if up == nil {
		return g, rates
	}
	sub := &model.Group{TaskSize: g.TaskSize}
	var out []float64
	for i, u := range up {
		if u {
			sub.Servers = append(sub.Servers, g.Servers[i])
			out = append(out, rates[i])
		}
	}
	return sub, out
}

// checkPlan verifies a published plan: its rates sum to its admitted λ′
// and satisfy the optimality conditions over its survivors.
func checkPlan(g *model.Group, pl *publishedPlan, lambda float64) error {
	if len(pl.Rates) != g.N() {
		return fmt.Errorf("plan v%d has %d rates for %d stations", pl.Version, len(pl.Rates), g.N())
	}
	if pl.Shed != 0 || math.Abs(pl.Admitted-lambda) > 1e-9*lambda {
		return fmt.Errorf("plan v%d admitted %g (shed %g) of requested %g", pl.Version, pl.Admitted, pl.Shed, lambda)
	}
	var sum numeric.KahanSum
	for _, r := range pl.Rates {
		sum.Add(r)
	}
	if math.Abs(sum.Value()-pl.Admitted) > 1e-9*pl.Admitted {
		return fmt.Errorf("plan v%d rates sum to %.12g, admitted %.12g", pl.Version, sum.Value(), pl.Admitted)
	}
	sub, rates := survivors(g, pl.Up, pl.Rates)
	kkt, err := core.KKTResidual(sub, queueing.FCFS, rates)
	if err != nil {
		return fmt.Errorf("plan v%d: %w", pl.Version, err)
	}
	if kkt >= kktTolerance {
		return fmt.Errorf("plan v%d KKT residual %g", pl.Version, kkt)
	}
	return nil
}

// replanRun is one replan-fleet run's live state.
type replanRun struct {
	g        *model.Group
	d        *daemon
	rng      *rand.Rand
	down     int // station the operator holds down, -1 for none
	up       []bool
	k        int
	spans    *spanLog
	first    []publishedPlan // the first λ′ cycle, for the analytic p95
	tResp    float64         // sum of published T′
	plans    int64
	failed   int64
	checkNs  time.Duration // wall time of decoding and checking
	checkCPU time.Duration
	gate     sync.RWMutex // held for reading across each re-plan; see startPhase
}

// flip has the operator take a seeded station down, or bring the downed
// one back, and waits until the re-solve it forces has landed.
func (w *replanRun) flip() error {
	st, up := w.down, true
	if st < 0 {
		st, up = w.rng.Intn(fleetSize), false
	}
	v0 := w.d.srv.Plan().Version
	body := fmt.Sprintf(`{"station": %d, "up": %t}`, st, up)
	status, _, err := w.d.do(http.MethodPost, "/v1/health", []byte(body), 0)
	if err != nil || status != http.StatusAccepted {
		return fmt.Errorf("POST /v1/health: status %d: %v", status, err)
	}
	w.up[st] = up
	if up {
		w.down = -1
	} else {
		w.down = st
	}
	for deadline := time.Now().Add(10 * time.Second); w.d.srv.Plan().Version == v0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("health re-solve did not land")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// replan posts one re-plan, adding its round trip to lat when lat is
// non-nil, and checks the published plan. Decoding and checking are
// timed apart so they can be left out of the op's cost.
func (w *replanRun) replan(lat *latencyWindows, traced bool) error {
	w.gate.RLock()
	defer w.gate.RUnlock()
	if w.k%fleetFlipEvery == 0 {
		if err := w.flip(); err != nil {
			return err
		}
	}
	lambda := fleetFracs[w.k%len(fleetFracs)] * w.g.MaxGenericRate()
	w.k++
	var id uint64
	var warmPhi float64
	if traced {
		id = uint64(w.k)
		warmPhi = w.d.srv.Plan().Phi
	}
	body := []byte(fmt.Sprintf(`{"lambda": %.17g}`, lambda))
	start := time.Now()
	status, resp, err := w.d.do(http.MethodPost, "/v1/plan", body, id)
	end := time.Now()
	if err != nil {
		return err
	}
	if lat != nil {
		lat.add(end, float64(end.Sub(start).Nanoseconds())/1e6)
	}
	if traced {
		w.spans.add("client", id, start, end)
		opts := fleetOptions()
		opts.WarmPhi = warmPhi
		up := append([]bool(nil), w.up...)
		s0 := time.Now()
		if _, err := core.OptimizeDegraded(w.g, lambda, up, opts); err != nil {
			return err
		}
		w.spans.add("core.solve", id, s0, time.Now())
	}

	check0, cpu0 := time.Now(), processCPU()
	var pl publishedPlan
	if status != http.StatusOK {
		err = fmt.Errorf("POST /v1/plan: status %d: %.200s", status, resp)
	} else if err = json.Unmarshal(resp, &pl); err == nil {
		err = checkPlan(w.g, &pl, lambda)
	}
	ok := err == nil
	if !ok {
		fmt.Printf("plan check failed: %v\n", err)
	}
	w.plans++
	if !ok {
		w.failed++
	} else {
		w.tResp += pl.AvgResponseTime
		if len(w.first) < len(fleetFracs) {
			w.first = append(w.first, pl)
		}
	}
	w.checkCPU += processCPU() - cpu0
	w.checkNs += time.Since(check0)
	return nil
}

func fleetOptions() core.Options {
	return core.Options{Discipline: queueing.FCFS, Sparse: true, Parallel: true}
}

func runReplanFleet(p runParams, r *results) error {
	g, err := fleetGroup()
	if err != nil {
		return err
	}
	sat := g.MaxGenericRate()
	var spans *spanLog
	var wrap func(http.Handler) http.Handler
	if p.trace {
		spans = newSpanLog()
		wrap = func(h http.Handler) http.Handler { return spans.middleware("handler", h) }
	}
	cfg := serve.Config{Group: g, Lambda: 0.5 * sat, Opts: fleetOptions(), Seed: p.seed}

	// Set-up: the daemon with its fleet start-up solve, handler,
	// listener, and the first request to each endpoint the run uses.
	var d *daemon
	setup := func() (time.Duration, error) {
		if d != nil {
			d.stop()
		}
		clock := &virtualClock{}
		c := cfg
		c.Now = clock.Now
		t0 := time.Now()
		var err error
		if d, err = startDaemon(c, 1, wrap); err != nil {
			return 0, err
		}
		body := []byte(fmt.Sprintf(`{"lambda": %.17g}`, 0.5*sat))
		if status, _, err := d.do(http.MethodPost, "/v1/plan", body, 0); err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("first POST /v1/plan: status %d: %v", status, err)
		}
		if status, _, err := d.do(http.MethodPost, "/v1/health", []byte(`{"station": 0, "up": true}`), 0); err != nil || status != http.StatusAccepted {
			return 0, fmt.Errorf("first POST /v1/health: status %d: %v", status, err)
		}
		return time.Since(t0), nil
	}
	setups, err := repeatSetups(21, 2*time.Second, setup)
	if err != nil {
		return err
	}
	defer func() { d.stop() }()
	reportSetup(r, setups)

	w := &replanRun{g: g, d: d, rng: rand.New(rand.NewSource(p.seed)), down: -1,
		up: make([]bool, fleetSize), spans: spans}
	for i := range w.up {
		w.up[i] = true
	}
	// Warm-up: one full λ′ cycle, untimed.
	for i := 0; i < 2*len(fleetFracs); i++ {
		if err := w.replan(nil, false); err != nil {
			return err
		}
	}
	w.plans, w.failed, w.tResp, w.first, w.checkCPU, w.checkNs = 0, 0, 0, nil, 0, 0

	lat := newLatencyWindows(p.seed, p.timed())
	deadline := time.Now().Add(p.timed())
	meter := startPhase(&w.gate)
	for time.Now().Before(deadline) {
		if err := w.replan(lat, false); err != nil {
			return err
		}
	}
	ph := meter.stop()
	ops := w.plans
	r.attempted, r.failed = ops, w.failed
	cpu := ph.cpu - w.checkCPU
	r.set("cpu_us_per_op", ph.cpuPerOpUS(cpu, ops), "us", joinNotes("ops", ops, "cpu_s", fmt.Sprintf("%.3f", cpu.Seconds()),
		"excluded_check_cpu_s", fmt.Sprintf("%.3f", w.checkCPU.Seconds()))+"; "+ph.speedNote())
	measuredP50 := lat.set(r, "POST /v1/plan", ph)
	good := ops - w.failed
	r.set("task_resp_mean", w.tResp/float64(good), "rbar", fmt.Sprintf("analytic T′ of the published plans, mean over %d", good))
	reportPhase(r, ph, ops)
	r.gate("plans", w.failed == 0, "%d of %d published plans failed the sum or KKT (< %g) check", w.failed, ops, kktTolerance)

	if len(w.first) > 0 {
		sum := 0.0
		for i := range w.first {
			sub, rates := survivors(g, w.first[i].Up, w.first[i].Rates)
			q, err := core.GroupGenericQuantile(sub, rates, 0.95)
			if err != nil {
				return err
			}
			sum += q
		}
		r.set("task_resp_p95", sum/float64(len(w.first)), "rbar",
			fmt.Sprintf("analytic p95 of the first %d published plans (one λ′ cycle)", len(w.first)))
	}

	if p.trace {
		spans.on.Store(true)
		w.plans, w.failed, w.checkCPU, w.checkNs = 0, 0, 0, 0
		deadline := time.Now().Add(p.timed())
		meter := startPhase(&w.gate)
		for time.Now().Before(deadline) {
			if err := w.replan(nil, true); err != nil {
				return err
			}
		}
		tph := meter.stop()
		spans.on.Store(false)
		r.attempted += w.plans
		r.failed += w.failed
		untraced := ph.cpuPerOpUS(cpu, ops)
		r.layer("bench.trace_overhead_pct", 100*(tph.cpuPerOpUS(tph.cpu-w.checkCPU, w.plans)-untraced)/untraced,
			joinNotes("traced_ops", w.plans, "untraced_ops", ops, "includes", "the direct solve per traced re-plan"))
		if err := replanLayers(r, w, measuredP50*1e3, p.seed); err != nil {
			return err
		}
		spans.write("replan-fleet", p.seed)
		c, err := d.counters()
		if err != nil {
			return err
		}
		reportDaemonCounters(r, c)
		r.fillBypassed()
	}
	r.set("peak_rss_mb", peakRSSMB(), "MB", "process peak RSS")
	return nil
}

// replanLayers derives replan-fleet's per-layer metrics from the traced
// phase's spans and direct passes.
func replanLayers(r *results, w *replanRun, untracedP50US float64, seed int64) error {
	sp := w.spans
	sp.link("core.solve", "handler")
	sp.link("handler", "client")
	netSelf := sp.selfTimes("client")
	planSelf := sp.selfTimes("handler")
	solve := sp.durations("core.solve")
	if len(netSelf) == 0 || len(planSelf) == 0 {
		return fmt.Errorf("traced phase recorded no spans")
	}
	netUS := median(netSelf) / 1e3
	planMS := median(planSelf) / 1e6
	solveMS := median(solve) / 1e6
	r.layer("net.self_us", netUS, fmt.Sprintf("client span - handler span; median of %d", len(netSelf)))
	r.layer("serve.plan.self_ms", planMS, fmt.Sprintf("POST /v1/plan handler span - core.solve; median of %d", len(planSelf)))
	r.layer("serve.http.self_us", 0, "inside serve.plan.self_ms on this workload")
	r.layer("core.solve_ms", solveMS, fmt.Sprintf("core.OptimizeDegraded on each traced re-plan's inputs; median of %d", len(solve)))
	r.layer("bench.self_us_per_op", float64(w.checkNs.Nanoseconds())/1e3/float64(w.plans),
		fmt.Sprintf("decoding and checking each published plan; ops=%d", w.plans))
	closure(map[string]float64{"net": netUS, "serve.plan": planMS * 1e3, "core": solveMS * 1e3}, untracedP50US, closureTolerance)

	kkt := 0.0
	for _, pl := range w.first {
		sub, rates := survivors(w.g, pl.Up, pl.Rates)
		v, err := core.KKTResidual(sub, queueing.FCFS, rates)
		if err != nil {
			return err
		}
		kkt = math.Max(kkt, v)
	}
	r.layer("core.kkt_residual_max", kkt, fmt.Sprintf("max over the first %d published plans", len(w.first)))

	body := fmt.Sprintf(`{"lambda": %.17g}`, 0.5*w.g.MaxGenericRate())
	h := w.d.srv.Handler()
	var respBytes int
	allocs, bytes := allocsPer(5, func(int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
		respBytes = rec.Body.Len()
	})
	r.layer("serve.http.allocs_per_req", allocs, "direct ServeHTTP of POST /v1/plan incl. the in-memory request and the solve; n=5")
	r.layer("serve.http.bytes_per_req", bytes, "same pass; n=5")
	r.layer("serve.http.resp_bytes", float64(respBytes), "POST /v1/plan body, all stations up")

	plan := w.d.srv.Plan()
	us := uniforms(seed, 1<<14)
	pickNs := blockTimer(256, 1024, func(i int) { plan.PickU(us[i&(len(us)-1)]) })
	r.layer("dispatch.pick_ns", pickNs, "Plan.PickU on the live fleet plan; median over 256 blocks of 1024")
	return nil
}
