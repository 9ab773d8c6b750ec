package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/metrics"
	"repro/internal/queueing"
	"repro/internal/sim"
)

// simulate-paper runs the reproduction's own validator: sim.Run of the
// paper's Example 1 cluster at Table 1's point under the optimal static
// split, FCFS, with seeded replications one after another on one
// goroutine. The replications' confidence interval must contain the
// analytic T′.

const (
	simHorizon = 2200.0
	simWarmup  = 200.0
	// simConfidence is the level of the interval the analytic T′ must
	// lie in.
	simConfidence = 0.999
)

// timedPicks wraps the simulator's dispatcher and times every Pick.
type timedPicks struct {
	inner sim.Dispatcher
	ns    int64
	n     int64
}

func (d *timedPicks) Name() string { return d.inner.Name() }

func (d *timedPicks) Pick(views []sim.StationView, rng *rand.Rand) int {
	t0 := time.Now()
	p := d.inner.Pick(views, rng)
	d.ns += time.Since(t0).Nanoseconds()
	d.n++
	return p
}

// The CPU time of one replication moves with the guest's speed state
// (see refNominal), and the state can change within a run. Each
// replication is therefore followed by refSlices reference slices timed
// on the same thread, and its CPU time is reported at the reference
// speed: scaled by refNominal over those slices' median. The workload
// is single-threaded, so no speed probe runs beside it; cpu_us_per_op
// takes its scaling from all of the run's slices.
const refSlices = 8

// simRun accumulates the replications of one phase.
type simRun struct {
	means, p95s metrics.Welford
	completions int64
	cpuMS       []float64 // thread CPU time per replication, at the reference speed
	events      float64
	runNs       float64
	allocs      []float64
	ref         refWork
	refs        [refSlices]float64
	refNs       []float64     // every reference slice's CPU time
	refCPU      time.Duration // CPU time of the reference slices
}

func (s *simRun) replicate(cfg sim.Config, traced bool) error {
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	t0, c0 := time.Now(), threadCPU()
	res, err := sim.Run(cfg)
	wall, cpu := time.Since(t0), threadCPU()-c0
	if err != nil {
		return err
	}
	if traced {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.allocs = append(s.allocs, float64(ms.Mallocs-ms0.Mallocs))
	}
	s.means.Add(res.GenericResponse.Mean())
	s.p95s.Add(res.GenericP95)
	s.completions += res.CompletedGeneric + res.CompletedSpecial
	for i := range s.refs {
		c := threadCPU()
		s.ref.slice()
		d := threadCPU() - c
		s.refs[i] = float64(d.Nanoseconds())
		s.refCPU += d
		if len(s.refNs) < reservoirSize {
			s.refNs = append(s.refNs, s.refs[i])
		}
	}
	if len(s.cpuMS) < reservoirSize {
		scale := float64(refNominal.Nanoseconds()) / median(s.refs[:])
		s.cpuMS = append(s.cpuMS, float64(cpu.Nanoseconds())/1e6*scale)
	}
	// Every task arrives and departs once; arrivals are counted after
	// warm-up only, so scale them to the whole horizon.
	s.events += 2 * float64(res.ArrivedGeneric+res.ArrivedSpecial) * simHorizon / (simHorizon - simWarmup)
	s.runNs += float64(wall.Nanoseconds())
	return nil
}

func runSimulatePaper(p runParams, r *results) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	g, lambda, opts := paperCluster()
	var cfg sim.Config
	setup := func() (time.Duration, error) {
		t0 := time.Now()
		res, err := core.Optimize(g, lambda, opts)
		if err != nil {
			return 0, err
		}
		picker, err := dispatch.NewProbabilistic(res.Rates)
		if err != nil {
			return 0, err
		}
		cfg = sim.Config{Group: g, Discipline: queueing.FCFS, GenericRate: lambda, Dispatcher: picker,
			Horizon: simHorizon, Warmup: simWarmup}
		return time.Since(t0), nil
	}
	setups, err := repeatSetups(201, time.Second, setup)
	if err != nil {
		return err
	}
	reportSetup(r, setups)

	seed := p.seed * 1_000_003
	// Warm-up: one untimed replication.
	cfg.Seed = seed
	if err := (&simRun{}).replicate(cfg, false); err != nil {
		return err
	}

	s := &simRun{}
	deadline := time.Now().Add(p.timed())
	meter := startPhase(nil)
	for time.Now().Before(deadline) {
		seed++
		cfg.Seed = seed
		if err := s.replicate(cfg, false); err != nil {
			return err
		}
	}
	ph := meter.stop()
	ph.cpu -= s.refCPU
	ph.setSpeed(s.refNs)
	reps := s.means.Count()
	ops := s.completions
	r.attempted = ops
	r.set("cpu_us_per_op", ph.cpuPerOpUS(ph.cpu, ops), "us", joinNotes("ops", ops, "replications", reps,
		"cpu_s", fmt.Sprintf("%.3f", ph.cpu.Seconds()), "excluded_reference_cpu_s", fmt.Sprintf("%.3f", s.refCPU.Seconds()))+"; "+ph.speedNote())
	r.set("latency_p50_ms", median(s.cpuMS), "ms", fmt.Sprintf("thread CPU time of one sim.Run replication at the reference speed (x%v / median of %d reference slices timed after it); n=%d", refNominal, refSlices, len(s.cpuMS)))
	r.set("latency_p90_ms", quantile(s.cpuMS, 0.9), "ms", fmt.Sprintf("same replications; n=%d", len(s.cpuMS)))
	r.set("task_resp_mean", s.means.Mean(), "rbar", fmt.Sprintf("simulated, mean of %d replication means", reps))
	r.set("task_resp_p95", s.p95s.Mean(), "rbar", fmt.Sprintf("simulated, mean of %d replication P2 p95s", reps))
	reportPhase(r, ph, ops)
	iv, err := metrics.ConfidenceInterval(&s.means, simConfidence)
	if err != nil {
		return err
	}
	r.gate("simulated_t", reps >= 2 && iv.Contains(analyticT), "analytic T′ %.7f vs simulated %s", analyticT, iv)

	if p.trace {
		picks := &timedPicks{inner: cfg.Dispatcher}
		tcfg := cfg
		tcfg.Dispatcher = picks
		t := &simRun{}
		deadline := time.Now().Add(p.timed())
		meter := startPhase(nil)
		for time.Now().Before(deadline) {
			seed++
			tcfg.Seed = seed
			if err := t.replicate(tcfg, true); err != nil {
				return err
			}
		}
		tph := meter.stop()
		tph.cpu -= t.refCPU
		tph.setSpeed(t.refNs)
		r.attempted += t.completions
		untraced := ph.cpuPerOpUS(ph.cpu, ops)
		r.layer("bench.trace_overhead_pct", 100*(tph.cpuPerOpUS(tph.cpu, t.completions)-untraced)/untraced,
			joinNotes("traced_ops", t.completions, "untraced_ops", ops))
		r.layer("sim.ns_per_event", s.runNs/s.events, fmt.Sprintf("untraced sim.Run wall / arrival and departure events; events=%.0f", s.events))
		r.layer("sim.pick_ns", float64(picks.ns)/float64(picks.n)-clockPairNs(), fmt.Sprintf("mean timed Pick less the clock-pair cost; picks=%d", picks.n))
		r.layer("sim.allocs_per_run", median(t.allocs), fmt.Sprintf("median over %d traced replications", len(t.allocs)))
		r.layer("bench.self_us_per_op", (float64(ph.wall.Nanoseconds())-s.runNs)/1e3/float64(ops),
			fmt.Sprintf("untraced wall outside sim.Run, per op; ops=%d", ops))
		solveMS := solveTimes(30, func() error {
			_, err := core.Optimize(g, lambda, opts)
			return err
		})
		r.layer("core.solve_ms", median(solveMS), fmt.Sprintf("core.Optimize in set-up; median of %d", len(solveMS)))
		res, err := core.Optimize(g, lambda, opts)
		if err != nil {
			return err
		}
		kkt, err := core.KKTResidual(g, opts.Discipline, res.Rates)
		if err != nil {
			return err
		}
		r.layer("core.kkt_residual_max", kkt, "the simulated split")
		picker, err := dispatch.NewProbabilistic(res.Rates)
		if err != nil {
			return err
		}
		us := uniforms(p.seed, 1<<14)
		pickNs := blockTimer(256, 1024, func(i int) { picker.PickU(us[i&(len(us)-1)]) })
		r.layer("dispatch.pick_ns", pickNs, "Probabilistic.PickU on the simulated split; median over 256 blocks of 1024")
		r.fillBypassed()
	}
	r.set("peak_rss_mb", peakRSSMB(), "MB", "process peak RSS")
	return nil
}

// clockPairNs is the median cost of two back-to-back clock reads, the
// overhead a per-call timing adds.
func clockPairNs() float64 {
	xs := make([]float64, 4096)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(xs)
}
