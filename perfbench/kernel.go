package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/trace"
)

// kernel-jsq-burst drives the decision kernel in-process from one
// goroutine, the way an in-process router would: Server.DecideBatch
// routes kernelBatch arrivals at a time under JSQ(2), each task runs on
// the FCFS blade emulation, and Server.ReportOutcome reports it at its
// virtual completion time, which closes the depth counters JSQ reads
// and feeds the outcome tracker. The arrivals come from a
// two-state MMPP with short sojourns, so the windowed estimator drifts
// and the daemon re-solves many times per run.
//
// The daemon re-solves in the background once its estimate drifts past
// driftThreshold from the plan's λ′. At the trace's own arrival rate a
// re-solve lands long before the next arrival, so the loop pauses the
// virtual clock until the new plan is live: otherwise each plan would
// lag by however much virtual time this machine routes during a solve,
// and the resolver would run flat out beside the loop.
//
// Automatic breakers are off. The daemon's health scan ticks on the wall
// clock (every 250 ms) but reads the virtual clock, which here runs about
// ten thousand times faster. Each scan would land at an arbitrary virtual
// instant and an open breaker would stay open for thousands of virtual
// seconds, so trips, and the admission sheds that follow them, would
// depend on this machine's speed rather than on the seed. With breakers
// on, the phi-accrual silence check trips healthy stations that JSQ(2)
// leaves idle through a lull; that is the daemon's behaviour, but not
// one this workload can time faithfully.

const (
	kernelBatch = 8
	// MMPP burst and lull rates as fractions of saturation, and the
	// mean sojourn (virtual seconds) in each state.
	burstHigh, burstLow = 0.85, 0.15
	burstSojourn        = 3.0
	// kernelBlock is the number of decisions per latency sample.
	kernelBlock = 512 * kernelBatch
	// driftThreshold is the daemon's drift trigger, set explicitly to
	// its default so the loop knows when a re-solve is on its way.
	driftThreshold = 0.2
	// resolveWait bounds the pause for a re-solve that the daemon's
	// rate limit turned away.
	resolveWait = 20 * time.Millisecond
)

type completion struct {
	t       float64
	station int
	resp    float64
}

// completionHeap is a min-heap of completions by time, typed so that
// pushes and pops do not allocate.
type completionHeap []completion

func (h *completionHeap) push(c completion) {
	*h = append(*h, c)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].t <= q[i].t {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *completionHeap) pop() completion {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && q[l].t < q[m].t {
			m = l
		}
		if r < n && q[r].t < q[m].t {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// kernelRun is one kernel-jsq-burst run's live state.
type kernelRun struct {
	srv      *serve.Server
	clock    *virtualClock
	arrivals *arrivalStream
	emu      *fcfsBlades
	pending  completionHeap
	dst      [kernelBatch]serve.Decision
	buf      []trace.Arrival
	collect  bool
	stats    *respStats
	ops      int64
	failed   int64
	// offCandidate counts routed decisions outside the JSQ candidates.
	offCandidate int64
	// peakLoad is the largest estimate-to-capacity ratio a decision saw;
	// admission sheds once it reaches 1.
	peakLoad float64
	// waits counts pauses for a re-solve, waitTimeouts the pauses that
	// ended without one, waited their wall time and waitCPU the CPU time
	// of the thread that waited.
	waits, waitTimeouts int64
	waited, waitCPU     time.Duration
	spans               *spanLog     // nil when untraced
	gate                sync.RWMutex // held for reading across each block; see startPhase
}

// step reports every completion due before the next batch, routes the
// next kernelBatch generic arrivals in one DecideBatch call, and admits
// the batch's tasks, generic and special, to the emulation in trace
// order.
func (k *kernelRun) step() {
	k.buf = k.buf[:0]
	tf := -1.0
	for gen := 0; gen < kernelBatch; {
		a := k.arrivals.nextArrival()
		k.buf = append(k.buf, a)
		if a.IsGeneric() {
			if gen == 0 {
				tf = a.Time
			}
			gen++
		}
	}
	for len(k.pending) > 0 && k.pending[0].t <= tf {
		c := k.pending.pop()
		k.clock.advanceTo(c.t)
		k.report(c)
	}
	k.clock.advanceTo(tf)
	if k.spans != nil {
		t0 := time.Now()
		k.srv.DecideBatch(k.dst[:])
		k.spans.add("serve.kernel.decide_batch", 0, t0, time.Now())
	} else {
		k.srv.DecideBatch(k.dst[:])
	}
	k.awaitResolve()
	j := 0
	for _, a := range k.buf {
		if !a.IsGeneric() {
			k.emu.admit(a.Station, a.Time, a.Requirement)
			continue
		}
		d := k.dst[j]
		j++
		if k.collect {
			k.ops++
			if d.Plan.Capacity > 0 {
				k.peakLoad = math.Max(k.peakLoad, d.Rate/d.Plan.Capacity)
			}
		}
		if d.Rejected {
			// Admission shed the task: a failed op, not a wrong answer.
			if k.collect {
				k.failed++
			}
			continue
		}
		// Every routed decision must be a JSQ candidate, a station the
		// plan that made it loads, or a breaker trial probe of a
		// half-open station, which must run so the breaker can close.
		if d.Station < 0 || d.Station >= len(d.Plan.Rates) || (d.Plan.Rates[d.Station] <= 0 && !d.Trial) {
			if k.collect {
				k.failed++
				k.offCandidate++
			}
			continue
		}
		dep := k.emu.admit(d.Station, a.Time, a.Requirement)
		k.pending.push(completion{t: dep, station: d.Station, resp: dep - a.Time})
		if k.collect {
			k.stats.add(dep - a.Time)
		}
	}
}

// awaitResolve pauses until the plan changes when a decision of the
// last batch saw the estimate drift past the daemon's threshold.
func (k *kernelRun) awaitResolve() {
	var plan *serve.Plan
	for _, d := range k.dst {
		if !d.Rejected && d.Plan.Lambda > 0 && math.Abs(d.Rate-d.Plan.Lambda)/d.Plan.Lambda > driftThreshold {
			plan = d.Plan
			break
		}
	}
	if plan == nil {
		return
	}
	t0, c0 := time.Now(), threadCPU()
	for k.srv.Plan().Version == plan.Version {
		if time.Since(t0) > resolveWait {
			k.waitTimeouts++
			break
		}
		time.Sleep(20 * time.Microsecond)
	}
	k.waits++
	k.waited += time.Since(t0)
	k.waitCPU += threadCPU() - c0
}

func (k *kernelRun) report(c completion) {
	lat := time.Duration(c.resp * float64(time.Second))
	var err error
	if k.spans != nil {
		t0 := time.Now()
		err = k.srv.ReportOutcome(c.station, serve.OutcomeSuccess, lat)
		k.spans.add("serve.kernel.report_outcome", 0, t0, time.Now())
	} else {
		err = k.srv.ReportOutcome(c.station, serve.OutcomeSuccess, lat)
	}
	if err != nil {
		panic(fmt.Sprintf("perfbench: ReportOutcome(%d): %v", c.station, err)) // station came from a decision
	}
}

// run steps until the deadline, adding the CPU time of every
// kernelBlock decisions with their reports to lat when it is non-nil.
// The CPU time of the driving thread, less what it spent waiting for
// re-solves, leaves out the time the host runs other work on this core.
func (k *kernelRun) run(deadline time.Time, lat *reservoir) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	k.waits, k.waitTimeouts, k.waited = 0, 0, 0
	for time.Now().Before(deadline) {
		k.gate.RLock()
		c0, w0 := threadCPU(), k.waitCPU
		for i := 0; i < kernelBlock/kernelBatch; i++ {
			k.step()
		}
		if lat != nil {
			lat.add(float64((threadCPU() - c0 - (k.waitCPU - w0)).Nanoseconds()) / 1e6)
		}
		k.gate.RUnlock()
	}
}

func runKernelJSQBurst(p runParams, r *results) error {
	g, lambda, opts := paperCluster()
	sat := g.MaxGenericRate()
	cfg := serve.Config{Group: g, Lambda: lambda, Opts: opts, Seed: p.seed, Logger: quietLogger,
		Policy: serve.PolicyJSQ, SampleD: 2, DriftThreshold: driftThreshold,
		Breaker: serve.BreakerConfig{Disabled: true}}

	// Set-up: the daemon with its start-up solve, then the first call
	// to each entry point the run uses.
	var srv *serve.Server
	var clock *virtualClock
	setup := func() (time.Duration, error) {
		if srv != nil {
			srv.Close()
		}
		clock = &virtualClock{}
		c := cfg
		c.Now = clock.Now
		t0 := time.Now()
		var err error
		if srv, err = serve.New(c); err != nil {
			return 0, err
		}
		var first [kernelBatch]serve.Decision
		srv.DecideBatch(first[:])
		for _, d := range first {
			if err := srv.ReportOutcome(d.Station, serve.OutcomeSuccess, 0); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	setups, err := repeatSetups(201, 2*time.Second, setup)
	if err != nil {
		return err
	}
	defer func() { srv.Close() }()
	reportSetup(r, setups)

	arrivals := newMMPPStream(g, burstHigh*sat, burstLow*sat, burstSojourn, burstSojourn, p.seed)
	k := &kernelRun{srv: srv, clock: clock, arrivals: arrivals, emu: newFCFSBlades(g),
		pending: make(completionHeap, 0, 1024), stats: newRespStats(p.seed)}
	// Warm-up: two estimator windows of virtual time.
	for clock.Now().Before(clockEpoch.Add(60 * time.Second)) {
		k.step()
	}

	k.collect = true
	lat := newReservoir(p.seed)
	meter := startPhase(&k.gate)
	k.run(time.Now().Add(p.timed()), lat)
	ph := meter.stop()
	k.collect = false
	ops := k.ops
	r.attempted, r.failed = ops, k.failed

	r.set("cpu_us_per_op", ph.cpuPerOpUS(ph.cpu, ops), "us", joinNotes("ops", ops, "cpu_s", fmt.Sprintf("%.3f", ph.cpu.Seconds()))+"; "+ph.speedNote())
	r.set("latency_p50_ms", lat.quantile(0.5)*ph.speed, "ms", fmt.Sprintf("thread CPU time per block of %d decisions with their outcome reports; %s; %s; measured %.6g",
		kernelBlock, lat.note(), ph.speedNote(), lat.quantile(0.5)))
	r.set("latency_p90_ms", lat.quantile(0.9)*ph.speed, "ms", fmt.Sprintf("same blocks; %s; measured %.6g", lat.note(), lat.quantile(0.9)))
	r.set("task_resp_mean", k.stats.mean.Mean(), "rbar", fmt.Sprintf("realized under JSQ(2); n=%d", k.stats.mean.Count()))
	r.set("task_resp_p95", k.stats.p95(), "rbar", "realized; "+k.stats.sample.note())
	reportPhase(r, ph, ops)
	fmt.Printf("re-solve pauses %d (%d without a re-solve), %.3f s of %.3f s wall\n",
		k.waits, k.waitTimeouts, k.waited.Seconds(), ph.wall.Seconds())
	r.gate("jsq_candidates", k.offCandidate == 0, "%d of %d decisions off the plan's JSQ candidates and not breaker trials (%d shed by admission; peak estimate %.3f of capacity)",
		k.offCandidate, ops, k.failed-k.offCandidate, k.peakLoad)

	if p.trace {
		k.spans = newSpanLog()
		k.collect = true
		k.ops, k.failed = 0, 0
		meter := startPhase(&k.gate)
		k.run(time.Now().Add(p.timed()), nil)
		tph := meter.stop()
		k.collect = false
		tops := k.ops
		r.attempted += k.ops
		r.failed += k.failed
		untraced := ph.cpuPerOpUS(ph.cpu, ops)
		r.layer("bench.trace_overhead_pct", 100*(tph.cpuPerOpUS(tph.cpu, tops)-untraced)/untraced,
			joinNotes("traced_ops", tops, "untraced_ops", ops))
		batch := k.spans.durations("serve.kernel.decide_batch")
		reports := k.spans.durations("serve.kernel.report_outcome")
		r.layer("serve.kernel.decide_batch_ns", median(batch), fmt.Sprintf("per DecideBatch call of %d; median of %d", kernelBatch, len(batch)))
		r.layer("serve.kernel.report_outcome_ns", median(reports), fmt.Sprintf("per ReportOutcome call; median of %d", len(reports)))
		inKernel := 0.0
		for _, v := range batch {
			inKernel += v
		}
		for _, v := range reports {
			inKernel += v
		}
		scale := float64(tops) / float64(len(batch)*kernelBatch) // spans past the cap were dropped
		r.layer("bench.self_us_per_op", (float64((tph.wall-k.waited).Nanoseconds())-inKernel*scale)/1e3/float64(tops),
			fmt.Sprintf("traced wall less re-solve pauses and kernel spans, per op; ops=%d", tops))

		spans := k.spans
		k.spans = nil
		allocs, _ := allocsPer(256, func(int) { k.step() })
		r.layer("serve.kernel.allocs_per_decision", allocs/kernelBatch, fmt.Sprintf("over 256 steps of %d decisions with their reports", kernelBatch))

		plan := srv.Plan()
		jsqNs := jsqPickBatchNs(g, plan, p.seed)
		r.layer("dispatch.jsq_pick_batch_ns", jsqNs, fmt.Sprintf("PowerOfD.PickBatch of %d on the live plan's candidates; median over 256 blocks of 256", kernelBatch))
		us := uniforms(p.seed, 1<<14)
		pickNs := blockTimer(256, 1024, func(i int) { plan.PickU(us[i&(len(us)-1)]) })
		r.layer("dispatch.pick_ns", pickNs, "Plan.PickU on the live plan; median over 256 blocks of 1024")
		warm := opts
		warm.WarmPhi = plan.Phi
		var res *core.DegradedResult
		solveMS := solveTimes(30, func() (err error) {
			res, err = core.OptimizeDegraded(g, plan.Lambda, plan.Up, warm)
			return err
		})
		r.layer("core.solve_ms", median(solveMS), fmt.Sprintf("core.OptimizeDegraded at the live plan's λ′, warm-started; median of %d", len(solveMS)))
		sub, rates := survivors(g, res.Up, res.Rates)
		kkt, err := core.KKTResidual(sub, opts.Discipline, rates)
		if err != nil {
			return err
		}
		r.layer("core.kkt_residual_max", kkt, "that solve, over its survivors")
		spans.write("kernel-jsq-burst", p.seed)
		reportDaemonCounters(r, daemonCountersInProcess(srv))
		r.fillBypassed()
	}
	r.set("peak_rss_mb", peakRSSMB(), "MB", "process peak RSS")
	return nil
}

// zeroDepths is an idle fleet for timing the JSQ picker alone.
type zeroDepths struct{}

func (zeroDepths) Depth(int) int64 { return 0 }

// jsqPickBatchNs times PowerOfD.PickBatch on a picker built, as the
// daemon builds it, from the plan's loaded stations and their net
// generic capacities.
func jsqPickBatchNs(g *model.Group, plan *serve.Plan, seed int64) float64 {
	var idx []int32
	var caps []float64
	for i, rate := range plan.Rates {
		if c := g.Servers[i].MaxGenericRate(g.TaskSize); rate > 0 && c > 0 {
			idx = append(idx, int32(i))
			caps = append(caps, c)
		}
	}
	p, err := dispatch.NewPowerOfD(2, g.N(), idx, caps, zeroDepths{})
	if err != nil {
		panic(fmt.Sprintf("perfbench: building JSQ picker: %v", err)) // candidates come from a valid plan
	}
	rng := rand.New(rand.NewSource(seed))
	bits := make([]uint64, 1<<12)
	for i := range bits {
		bits[i] = rng.Uint64()
	}
	var dst [kernelBatch]int32
	return blockTimer(256, 256, func(i int) {
		off := (i * kernelBatch) & (len(bits) - 1)
		p.PickBatch(bits[off:off+kernelBatch], dst[:])
	})
}
