package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/queueing"
)

// Config describes one simulation scenario.
type Config struct {
	// Group is the blade-server system to simulate.
	Group *model.Group
	// Discipline selects FCFS or priority scheduling of special tasks.
	Discipline queueing.Discipline
	// GenericRate is the total generic arrival rate λ′. Zero disables
	// the generic stream (special-only runs are allowed).
	GenericRate float64
	// Dispatcher routes generic tasks. Required when GenericRate > 0.
	Dispatcher Dispatcher
	// Horizon is the simulated duration. Must be positive.
	Horizon float64
	// Warmup drops observations from tasks arriving before this time,
	// removing initial-transient bias. Must be < Horizon.
	Warmup float64
	// Seed makes the run reproducible.
	Seed int64
	// Service draws task execution requirements for both classes.
	// Nil means Exponential (the paper's M/M/m assumption); set
	// Deterministic, ErlangK, or HyperExp2 to probe how the optimized
	// system behaves when the assumption is violated.
	Service ServiceDistribution
	// BatchSize, when positive, additionally accumulates generic
	// response times into batch means of this size, enabling a valid
	// single-run confidence interval despite the autocorrelation of
	// consecutive sojourn times (see RunResult.GenericBatches).
	BatchSize int
	// QueueCapacity, when positive, bounds every station at that many
	// tasks in system (waiting + in service): arrivals finding a full
	// station are dropped and counted in RunResult.Blocked*. This is
	// the M/M/m/K regime of queueing.SolveMMmK; zero keeps the paper's
	// infinite waiting rooms.
	QueueCapacity int
	// HistogramBins/HistogramMax, when both positive, record generic
	// response times into a fixed-bin histogram over [0, HistogramMax)
	// (see RunResult.GenericHistogram).
	HistogramBins int
	HistogramMax  float64
	// Failures, when non-nil with any enabled station, injects
	// per-station up/down processes: schedules are generated from the
	// run seed, stations lose blades (or go fully down) mid-run, and
	// the Lost*/Requeued*/Downtime/Availability fields of RunResult are
	// populated. Must cover exactly the group's stations.
	Failures *failure.Plan
	// FailureSchedules supplies explicit per-station failure traces and
	// takes precedence over Failures. Use it to replay the identical
	// outage scenario under different dispatchers or policies. Length
	// must equal the group size (nil entries never fail).
	FailureSchedules []failure.Schedule
	// FailurePolicy selects requeue-with-residual-work (default) or
	// drop for tasks in flight on a failing blade.
	FailurePolicy FailurePolicy
	// Retry, when non-nil, models clients that bounce off fully-down or
	// full stations: the task is re-dispatched (fresh Pick) after a
	// capped exponential backoff, and is lost once MaxAttempts retries
	// are exhausted. Without it, tasks sent to a down station wait in
	// its queue until repair (service is suspended, not admission).
	Retry *RetryPolicy
}

// service returns the configured distribution or the default.
func (c Config) service() ServiceDistribution {
	if c.Service == nil {
		return Exponential{}
	}
	return c.Service
}

func (c Config) validate() error {
	if c.Group == nil {
		return fmt.Errorf("sim: nil group")
	}
	if err := c.Group.Validate(); err != nil {
		return err
	}
	if !c.Discipline.Valid() {
		return fmt.Errorf("sim: unknown discipline %d", int(c.Discipline))
	}
	if c.GenericRate < 0 || math.IsNaN(c.GenericRate) {
		return fmt.Errorf("sim: generic rate %g must be non-negative", c.GenericRate)
	}
	if c.GenericRate > 0 && c.Dispatcher == nil {
		return fmt.Errorf("sim: generic rate %g requires a dispatcher", c.GenericRate)
	}
	if c.Horizon <= 0 || math.IsNaN(c.Horizon) {
		return fmt.Errorf("sim: horizon %g must be positive", c.Horizon)
	}
	if c.Warmup < 0 || c.Warmup >= c.Horizon {
		return fmt.Errorf("sim: warmup %g must be in [0, horizon)", c.Warmup)
	}
	if err := validateDistribution(c.Service); err != nil {
		return err
	}
	if !c.FailurePolicy.Valid() {
		return fmt.Errorf("sim: unknown failure policy %d", int(c.FailurePolicy))
	}
	if c.Failures != nil {
		if err := c.Failures.Validate(); err != nil {
			return err
		}
	}
	if c.Retry != nil {
		if err := c.Retry.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// RunResult reports one simulation run.
type RunResult struct {
	// GenericResponse accumulates response times of generic tasks that
	// arrived after warmup and completed before the horizon.
	GenericResponse metrics.Welford
	// SpecialResponse is the same for special tasks.
	SpecialResponse metrics.Welford
	// GenericHealthy/GenericDegraded split GenericResponse by system
	// state at the task's arrival: degraded means at least one station
	// was fully down. Both are zero-valued without failure injection.
	GenericHealthy  metrics.Welford
	GenericDegraded metrics.Welford
	// GenericP95 estimates the 95th percentile of generic response
	// times (P² streaming estimator).
	GenericP95 float64
	// GenericBatches holds batch means of generic response times when
	// Config.BatchSize > 0 (nil otherwise); use its Interval method
	// for a single-run confidence interval.
	GenericBatches *metrics.BatchMeans
	// GenericHistogram bins generic response times when configured
	// (nil otherwise).
	GenericHistogram *metrics.Histogram
	// PerStationGeneric holds generic response-time accumulators per
	// station.
	PerStationGeneric []metrics.Welford
	// Utilizations are measured per-blade utilizations over the run
	// (relative to nameplate blade counts, so outages depress them).
	Utilizations []float64
	// Downtime is the per-station full-outage time within the horizon;
	// Availability is 1 − Downtime/Horizon. Nil without failures.
	Downtime     []float64
	Availability []float64
	// ArrivedGeneric / ArrivedSpecial count post-warmup arrivals.
	ArrivedGeneric, ArrivedSpecial int64
	// CompletedGeneric / CompletedSpecial count recorded completions.
	CompletedGeneric, CompletedSpecial int64
	// BlockedGeneric / BlockedSpecial count post-warmup arrivals
	// dropped by full stations (only with Config.QueueCapacity > 0).
	BlockedGeneric, BlockedSpecial int64
	// LostGeneric counts post-warmup generic tasks lost to outages:
	// retries against down stations exhausted (Config.Retry), or
	// evicted in flight under DropInFlight. LostSpecial counts
	// in-flight evictions of special tasks under DropInFlight.
	LostGeneric, LostSpecial int64
	// RequeuedGeneric / RequeuedSpecial count in-flight tasks put back
	// in queue by blade failures under RequeueInFlight.
	RequeuedGeneric, RequeuedSpecial int64
	// RetriedGeneric counts backoff retries performed (Config.Retry).
	RetriedGeneric int64
	// Clock is the final simulation time (= horizon).
	Clock float64
}

// CompletedGenericFraction returns the fraction of post-warmup generic
// arrivals that completed within the horizon — the robustness headline
// number next to T′. Returns 1 when nothing arrived.
func (r *RunResult) CompletedGenericFraction() float64 {
	if r.ArrivedGeneric == 0 {
		return 1
	}
	return float64(r.CompletedGeneric) / float64(r.ArrivedGeneric)
}

// Run executes one simulation run and returns its statistics.
func Run(cfg Config) (*RunResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	scheds, err := cfg.buildSchedules()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	svc := cfg.service()
	g := cfg.Group
	n := g.N()
	cal := newCalendar()

	// One backing array for all stations, with the in-service tracking
	// slice pre-sized to the blade count — a station can never hold more
	// than m tasks in service, so start() never grows it.
	backing := make([]station, n)
	stations := make([]*station, n)
	for i, s := range g.Servers {
		backing[i] = station{
			index:      i,
			blades:     s.Size,
			speed:      s.Speed,
			discipline: cfg.Discipline,
			active:     make([]serviceRec, 0, s.Size),
		}
		stations[i] = &backing[i]
	}
	// Failure transitions are known upfront; schedule them first so
	// that, on time ties, the state change precedes arrivals.
	for i, sch := range scheds {
		for _, tr := range sch {
			if tr.Time > cfg.Horizon {
				break
			}
			cal.schedule(event{time: tr.Time, kind: evFailure, station: i, down: tr.Down})
		}
	}
	for i, s := range g.Servers {
		if s.SpecialRate > 0 {
			cal.schedule(event{time: rng.ExpFloat64() / s.SpecialRate, kind: evSpecialArrival, station: i})
		}
	}
	if cfg.GenericRate > 0 {
		cal.schedule(event{time: rng.ExpFloat64() / cfg.GenericRate, kind: evGenericArrival})
	}

	res := &RunResult{
		PerStationGeneric: make([]metrics.Welford, n),
		Utilizations:      make([]float64, n),
	}
	p95, err := metrics.NewP2Quantile(0.95)
	if err != nil {
		return nil, err
	}
	if cfg.BatchSize > 0 {
		bm, err := metrics.NewBatchMeans(cfg.BatchSize)
		if err != nil {
			return nil, err
		}
		res.GenericBatches = bm
	}
	if cfg.HistogramBins > 0 && cfg.HistogramMax > 0 {
		h, err := metrics.NewHistogram(0, cfg.HistogramMax, cfg.HistogramBins)
		if err != nil {
			return nil, err
		}
		res.GenericHistogram = h
	}
	views := newViews(stations, g.TaskSize)
	fullyDown := 0 // stations with zero available blades

	// dispatchGeneric routes t through the dispatcher and places it. A
	// fully-down station suspends service, not admission (the classic
	// server-breakdown model): tasks sent there by a health-oblivious
	// dispatcher pile up in its queue until repair. A retry policy
	// models clients that bounce off down/full stations instead — they
	// re-dispatch after a capped exponential backoff and give up (lost)
	// after MaxAttempts. A full bounded waiting room always drops.
	dispatchGeneric := func(t task, now float64, attempt int) error {
		target := cfg.Dispatcher.Pick(views, rng)
		if target < 0 || target >= n {
			return fmt.Errorf("sim: dispatcher %q picked invalid station %d", cfg.Dispatcher.Name(), target)
		}
		st := stations[target]
		blocked := full(st, cfg.QueueCapacity)
		downTarget := st.available() == 0
		if blocked || downTarget {
			if cfg.Retry != nil {
				if attempt < cfg.Retry.MaxAttempts {
					if now >= cfg.Warmup {
						res.RetriedGeneric++
					}
					cal.schedule(event{time: now + cfg.Retry.delay(attempt), kind: evRetry, task: t, attempt: attempt + 1})
					return nil
				}
				if now >= cfg.Warmup {
					if blocked {
						res.BlockedGeneric++
					} else {
						res.LostGeneric++
					}
				}
				return nil
			}
			if blocked {
				if now >= cfg.Warmup {
					res.BlockedGeneric++
				}
				return nil
			}
		}
		st.admit(t, now, cal)
		st.refresh(&views[target])
		return nil
	}

	for {
		ev, ok := cal.next()
		if !ok || ev.time > cfg.Horizon {
			break
		}
		now := ev.time
		switch ev.kind {
		case evGenericArrival:
			// Schedule the next generic arrival first (Poisson stream).
			cal.schedule(event{time: now + rng.ExpFloat64()/cfg.GenericRate, kind: evGenericArrival})
			t := task{class: Generic, arrival: now, req: svc.Sample(rng, g.TaskSize), degraded: fullyDown > 0}
			if now >= cfg.Warmup {
				res.ArrivedGeneric++
			}
			if err := dispatchGeneric(t, now, 0); err != nil {
				return nil, err
			}

		case evRetry:
			if err := dispatchGeneric(ev.task, now, ev.attempt); err != nil {
				return nil, err
			}

		case evSpecialArrival:
			st := stations[ev.station]
			rate := g.Servers[ev.station].SpecialRate
			cal.schedule(event{time: now + rng.ExpFloat64()/rate, kind: evSpecialArrival, station: ev.station})
			t := task{class: Special, arrival: now, req: svc.Sample(rng, g.TaskSize), degraded: fullyDown > 0}
			if now >= cfg.Warmup {
				res.ArrivedSpecial++
			}
			// Special tasks are dedicated to their station: while it is
			// down they wait in queue rather than being lost, but a
			// bounded waiting room still blocks them.
			if full(st, cfg.QueueCapacity) {
				if now >= cfg.Warmup {
					res.BlockedSpecial++
				}
				continue
			}
			st.admit(t, now, cal)
			st.refresh(&views[ev.station])

		case evFailure:
			st := stations[ev.station]
			wasFull := st.available() == 0
			out := st.setDown(ev.down, now, cal, cfg.FailurePolicy == DropInFlight)
			st.refresh(&views[ev.station])
			if now >= cfg.Warmup {
				res.RequeuedGeneric += int64(out.requeuedGeneric)
				res.RequeuedSpecial += int64(out.requeuedSpecial)
				res.LostGeneric += int64(out.lostGeneric)
				res.LostSpecial += int64(out.lostSpecial)
			}
			if isFull := st.available() == 0; isFull != wasFull {
				if isFull {
					fullyDown++
				} else {
					fullyDown--
				}
			}

		case evDeparture:
			st := stations[ev.station]
			if !st.depart(now, cal, ev.id) {
				continue // stale: task was evicted by a failure
			}
			st.refresh(&views[ev.station])
			if ev.task.arrival >= cfg.Warmup {
				resp := now - ev.task.arrival
				if ev.task.class == Generic {
					res.GenericResponse.Add(resp)
					res.PerStationGeneric[ev.station].Add(resp)
					if ev.task.degraded {
						res.GenericDegraded.Add(resp)
					} else {
						res.GenericHealthy.Add(resp)
					}
					p95.Add(resp)
					if res.GenericBatches != nil {
						res.GenericBatches.Add(resp)
					}
					if res.GenericHistogram != nil {
						res.GenericHistogram.Add(resp)
					}
					res.CompletedGeneric++
				} else {
					res.SpecialResponse.Add(resp)
					res.CompletedSpecial++
				}
			}
		}
	}
	for i, st := range stations {
		res.Utilizations[i] = st.utilization(cfg.Horizon)
	}
	if scheds != nil {
		res.Downtime = make([]float64, n)
		res.Availability = make([]float64, n)
		for i, st := range stations {
			res.Downtime[i] = st.downtime(cfg.Horizon)
			res.Availability[i] = 1 - res.Downtime[i]/cfg.Horizon
		}
	}
	res.GenericP95 = p95.Value()
	res.Clock = cfg.Horizon
	return res, nil
}

// full reports whether a station has reached the capacity bound (0
// means unbounded, the paper's model).
func full(st *station, capacity int) bool {
	if capacity <= 0 {
		return false
	}
	return st.busy+st.queueLen() >= capacity
}
