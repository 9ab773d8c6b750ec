// Package serve is the online serving layer of the system: a
// long-running daemon ("bladed") that solves the paper's optimal load
// distribution once at startup and then serves routing decisions from
// the resulting probabilistic plan over HTTP.
//
// The serving loop closes the control cycle the batch CLIs cannot: a
// windowed estimator tracks the observed generic arrival rate λ′, and
// when it drifts beyond a configurable threshold — or an operator
// marks a station down — a background goroutine re-solves the
// optimization with a warm-started Lagrange bracket
// (core.Options.WarmPhi, via core.Fleet.OptimizeDegraded on the index
// New builds once) and atomically swaps the live plan.
// In-flight requests keep the plan snapshot they loaded, so a swap
// never drops or re-routes work already being decided.
//
// Production plumbing: admission control sheds with 503 when the
// observed rate would push a surviving station to ρ_i ≥ 1, in-flight
// concurrency is bounded, the API work that can block (request bodies,
// backend-mode dispatch, the synchronous re-solve) runs under a
// deadline, operational counters export in Prometheus text format
// (backed by internal/metrics, no external deps), and /debug/pprof is
// mounted.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	randv2 "math/rand/v2"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/model"
)

// Config describes a daemon instance.
type Config struct {
	// Group is the blade-server cluster to serve. Required.
	Group *model.Group
	// Lambda is the planned total generic rate λ′ the startup solve
	// uses. Required (positive).
	Lambda float64
	// Opts configures the optimizer (discipline, ε, utilization cap…).
	Opts core.Options
	// Names optionally labels stations (from the cluster spec); used in
	// dispatch responses for operator-facing clarity.
	Names []string
	// DriftThreshold is the relative deviation |λ̂−λ_plan|/λ_plan that
	// triggers a background re-solve once the estimator is warm.
	// Default 0.2.
	DriftThreshold float64
	// Window is the arrival-rate estimation window. Default 30s.
	Window time.Duration
	// Buckets subdivides the window. Default 10.
	Buckets int
	// MinResolveInterval rate-limits drift-triggered re-solves (health
	// events bypass it). Default 1s.
	MinResolveInterval time.Duration
	// MaxInFlight bounds concurrently served API requests; excess gets
	// 503. Default 256.
	MaxInFlight int
	// RequestTimeout bounds the /v1 work that can block: reading a
	// request body, a backend-mode dispatch, and the synchronous
	// POST /v1/plan re-solve. Each answers 503 "request timed out" when
	// it runs out. Default 5s.
	RequestTimeout time.Duration
	// Now injects a clock for deterministic tests. Default time.Now.
	Now func() time.Time
	// Logger receives structured operational logs. Default slog.Default().
	Logger *slog.Logger
	// Seed seeds the dispatch RNG (0 means 1, for determinism).
	Seed int64
	// DeterministicRNG serializes all dispatch draws through a single
	// seeded math/rand generator (the pre-sharding behaviour), so a
	// fixed Seed reproduces the exact routing sequence. The default is
	// lock-free per-shard SplitMix64 states, which are seeded but not
	// sequence-reproducible under concurrency.
	DeterministicRNG bool
	// Policy selects the dispatch policy: the paper-optimal static
	// probabilistic split (default) or power-of-d sampled least-depth
	// routing (PolicyJSQ).
	Policy Policy
	// SampleD is the number of stations PolicyJSQ samples per request
	// (dispatch.MinSampleD–MaxSampleD). Default 2 — JSQ(2), the
	// power-of-two choices policy. Ignored under PolicyStatic.
	SampleD int
	// Backend, when set, makes Server.Dispatch (and POST /v1/dispatch)
	// execute each admitted request against its routed station through
	// the guard wrapper instead of only returning a routing decision.
	Backend Backend
	// Guard tunes the backend dispatch wrapper (timeouts, retry
	// budget, hedging). Ignored when Backend is nil.
	Guard GuardConfig
	// Breaker tunes the per-station circuit breakers and the health
	// scan that drives automatic shed/readmit re-solves.
	Breaker BreakerConfig
}

// Policy selects how Decide turns a plan into a station pick.
type Policy int

const (
	// PolicyStatic routes by the plan's optimal probabilistic split,
	// independent of system state — exactly the paper's model.
	PolicyStatic Policy = iota
	// PolicyJSQ samples Config.SampleD candidate stations per request
	// and routes to the least (depth+1)/capacity — power-of-d choices
	// generalized to heterogeneous stations. The static plan still
	// decides WHICH stations are candidates (only stations the solve
	// loaded are sampleable) while the in-flight depth counters decide
	// among them, so breaker exclusions, ramps and admission control
	// compose unchanged.
	PolicyJSQ
)

func (p Policy) String() string {
	switch p {
	case PolicyStatic:
		return "static"
	case PolicyJSQ:
		return "jsq"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

func (c *Config) withDefaults() {
	if c.Policy == PolicyJSQ && c.SampleD == 0 {
		c.SampleD = dispatch.MinSampleD
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.2
	}
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.Buckets <= 0 {
		c.Buckets = 10
	}
	if c.MinResolveInterval <= 0 {
		c.MinResolveInterval = time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Guard.withDefaults()
	c.Breaker.withDefaults()
}

// Server is the daemon state. Create with New, mount Handler on an
// http.Server, and Close when draining is complete.
type Server struct {
	cfg   Config
	group *model.Group
	// fleet indexes group once for every re-solve and admission ceiling.
	fleet *core.Fleet
	log   *slog.Logger
	now   func() time.Time
	est   *RateEstimator
	m     *shardedMetrics
	rnd   dispatchRand
	// fastRnd is the sharded generator behind rnd, which the hot path
	// feeds its per-request word's shard slice (nil under
	// DeterministicRNG, whose draws all go through rnd in sequence).
	fastRnd *shardedRNG

	// depths/jsqD are the PolicyJSQ state: per-station in-flight depth
	// counters the power-of-d score reads, and the sample count d.
	// Both zero-valued under PolicyStatic.
	depths *depthSet
	jsqD   int

	plan atomic.Pointer[Plan]

	// Failure-detection state: per-station outcome statistics, the
	// circuit breakers they drive, and the guarded-dispatch runtime.
	tracker  *outcomeTracker
	breakers *breakerSet
	guard    guardState
	backend  Backend
	scanMu   sync.Mutex // serializes healthScan passes; guards scanVol
	scanVol  []int64    // outcome volume anchor per station (since last transition)

	mu sync.Mutex // guards tally, lastResolve
	// tally is the operator's availability vector with its per-class
	// survivor counts; setOperatorUp is its one writer.
	tally       *core.Tally
	lastResolve time.Time

	solveMu   sync.Mutex // serializes background and synchronous solves
	resolveCh chan resolveReq
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	inflight chan struct{}
}

type resolveReq struct {
	lambda float64 // ≤ 0 means "current estimate, else current plan λ"
	reason string
	// reject refuses a λ′ at or beyond the admission ceiling with an
	// *overCeilingError instead of shedding down to the ceiling: such a
	// rate would push a surviving station to ρ_i ≥ 1, and an operator
	// who asked for it explicitly is told so.
	reject bool
}

// New validates the configuration, runs the startup solve, and starts
// the background re-optimization goroutine.
func New(cfg Config) (*Server, error) {
	if cfg.Group == nil {
		return nil, fmt.Errorf("serve: nil group")
	}
	group := cfg.Group.Clone()
	fleet, err := core.NewFleet(group)
	if err != nil {
		return nil, err
	}
	if math.IsNaN(cfg.Lambda) || cfg.Lambda <= 0 {
		return nil, fmt.Errorf("serve: planned rate λ′=%g must be positive", cfg.Lambda)
	}
	if cfg.Names != nil && len(cfg.Names) != cfg.Group.N() {
		return nil, fmt.Errorf("serve: %d names for %d stations", len(cfg.Names), cfg.Group.N())
	}
	if cfg.Policy != PolicyStatic && cfg.Policy != PolicyJSQ {
		return nil, fmt.Errorf("serve: unknown dispatch policy %v", cfg.Policy)
	}
	cfg.withDefaults()
	if cfg.Policy == PolicyJSQ &&
		(cfg.SampleD < dispatch.MinSampleD || cfg.SampleD > dispatch.MaxSampleD) {
		return nil, fmt.Errorf("serve: SampleD %d outside [%d, %d]",
			cfg.SampleD, dispatch.MinSampleD, dispatch.MaxSampleD)
	}
	s := &Server{
		cfg:       cfg,
		group:     group,
		fleet:     fleet,
		log:       cfg.Logger,
		now:       cfg.Now,
		backend:   cfg.Backend,
		est:       NewRateEstimator(cfg.Window, cfg.Buckets, cfg.Now),
		m:         newServerMetrics(cfg.Group.N()),
		scanVol:   make([]int64, cfg.Group.N()),
		resolveCh: make(chan resolveReq, 1),
		done:      make(chan struct{}),
		inflight:  make(chan struct{}, cfg.MaxInFlight),
	}
	s.tracker = newOutcomeTracker(cfg.Group.N(), runtime.GOMAXPROCS(0))
	s.breakers = newBreakerSet(cfg.Group.N(), cfg.Breaker)
	s.guard.init(cfg.Guard)
	if cfg.Policy == PolicyJSQ {
		s.depths = newDepthSet(cfg.Group.N())
		s.jsqD = cfg.SampleD
	}
	if cfg.DeterministicRNG {
		s.rnd = newLockedRand(cfg.Seed)
	} else {
		s.fastRnd = newShardedRNG(cfg.Seed)
		s.rnd = s.fastRnd
	}
	if s.tally, err = fleet.NewTally(nil); err != nil {
		return nil, err
	}
	plan, err := buildPlan(s.fleet, cfg.Lambda, nil, cfg.Opts, 1, s.now(), nil, s.jsqD, s.depths)
	if err != nil {
		return nil, fmt.Errorf("serve: startup solve: %w", err)
	}
	s.plan.Store(plan)
	if plan.Shed > 0 {
		s.log.Warn("startup plan is overloaded; shedding",
			"lambda", cfg.Lambda, "admitted", plan.Admitted, "shed", plan.Shed)
	}
	s.log.Info("startup plan solved",
		"lambda", plan.Lambda, "avg_response_time", plan.AvgResponseTime,
		"capacity", plan.Capacity, "stations", s.group.N())
	s.wg.Add(1)
	go s.resolver()
	s.wg.Add(1)
	go s.scanner()
	return s, nil
}

// Close stops the background resolver and waits for any re-solve a
// timed-out POST /v1/plan left running. Safe to call more than once;
// call after the HTTP server has drained.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.done) })
	s.wg.Wait()
}

// Plan returns the live plan snapshot.
func (s *Server) Plan() *Plan { return s.plan.Load() }

// Estimate returns the current observed arrival rate and whether the
// estimator has seen a full window.
func (s *Server) Estimate() (rate float64, warm bool) {
	return s.est.Rate(), s.est.Warm()
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/dispatch   → routing decision from the live plan (and
//	                      guarded execution when a Backend is set)
//	POST /v1/dispatch/batch
//	                    → {"count": N} routing decisions in one batched
//	                      hot-path pass (router mode)
//	GET  /v1/plan       → live plan
//	POST /v1/plan       → synchronous re-solve (optional {"lambda": x})
//	GET  /v1/health     → effective availability, per-station breaker
//	                      state and outcome statistics
//	POST /v1/health     → operator availability override (see below)
//	POST /v1/observe    → report an externally executed outcome
//	GET  /metrics       → Prometheus text exposition
//	GET  /healthz       → liveness probe
//	     /debug/pprof/* → runtime profiles
//
// Operator overrides versus breaker transitions: POST /v1/health
// {"up": false} PINS the station down — the circuit breaker is frozen
// and may not readmit it; only an operator {"up": true} lifts the
// pin. POST /v1/health {"up": true} also force-resets the station's
// breaker to closed at full weight (no recovery ramp) and rearms its
// open-interval backoff: the operator's word overrides any failure
// history the detector has accumulated. Breaker-driven transitions
// never touch the operator vector.
//
// The /v1 API is bounded by MaxInFlight. RequestTimeout bounds only
// the work that can block: the request body read, a backend-mode
// dispatch, and the POST /v1/plan solve. Everything else runs in
// bounded time and writes its compact JSON answer straight to the
// connection.
func (s *Server) Handler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("POST /v1/dispatch", s.handleDispatch)
	api.HandleFunc("POST /v1/dispatch/batch", s.handleDispatchBatch)
	api.HandleFunc("GET /v1/plan", s.handleGetPlan)
	api.HandleFunc("POST /v1/plan", s.handlePostPlan)
	api.HandleFunc("GET /v1/health", s.handleGetHealth)
	api.HandleFunc("POST /v1/health", s.handlePostHealth)
	api.HandleFunc("POST /v1/observe", s.handleObserve)
	bounded := s.limitInFlight(api)

	root := http.NewServeMux()
	root.Handle("/v1/", bounded)
	root.HandleFunc("GET /metrics", s.handleMetrics)
	root.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	root.HandleFunc("/debug/pprof/", pprof.Index)
	root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	root.HandleFunc("/debug/pprof/profile", pprof.Profile)
	root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return root
}

// limitInFlight bounds concurrency with a semaphore; a full daemon
// answers 503 immediately instead of queueing unboundedly.
func (s *Server) limitInFlight(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			h.ServeHTTP(w, r)
		default:
			s.m.reject(rejectConcurrency)
			writeError(w, http.StatusServiceUnavailable, "too many in-flight requests")
		}
	})
}

// DispatchResponse is the body of a successful dispatch decision.
type DispatchResponse struct {
	// Station is the 0-based station index the task should run on.
	Station int `json:"station"`
	// Name labels the station when the spec provided names.
	Name string `json:"name,omitempty"`
	// PlanVersion identifies the plan that made the decision.
	PlanVersion int64 `json:"plan_version"`
	// Attempts is how many guarded backend attempts ran (0 when the
	// daemon routes without executing).
	Attempts int `json:"attempts,omitempty"`
	// Trial marks a half-open breaker probe.
	Trial bool `json:"trial,omitempty"`
	// Hedged reports that a racing second attempt was launched.
	Hedged bool `json:"hedged,omitempty"`
}

// Decision is the outcome of one pass through the dispatch hot path.
type Decision struct {
	// Station is the routed station index (-1 when Rejected).
	Station int
	// Plan is the plan snapshot the decision worked from.
	Plan *Plan
	// Rate is the observed arrival-rate estimate at decision time.
	Rate float64
	// Rejected reports a probabilistic admission-control shed; Reason
	// then names the cause ("admission" or "shed").
	Rejected bool
	Reason   string
	// Trial marks a half-open breaker probe: the request was diverted
	// to a recovering station to test it, not routed by plan weight.
	Trial bool
}

// Decide runs the dispatch hot path once — observe the arrival,
// admission-check against the live plan, pick a station — and records
// the decision in the operational metrics. It is the core of
// POST /v1/dispatch, exported so load harnesses and benchmarks can
// drive it without HTTP framing. The path is lock-free.
func (s *Server) Decide() Decision {
	start := s.now()
	// One random word per request feeds every randomized step through
	// disjoint bit slices (layout in randbits.go); the admission coin,
	// and under DeterministicRNG every other draw too, comes from s.rnd
	// so a fixed seed keeps its sequence.
	u := randv2.Uint64()
	s.est.observeAtShard(start, 1, u)
	plan := s.plan.Load()
	rate := s.est.RateAt(start)
	warm := s.est.WarmAt(start)

	admit, reason := s.admission(plan, rate, warm)
	if admit < 1 && s.rnd.Float64() >= admit {
		s.m.reject(reason)
		return Decision{Station: -1, Plan: plan, Rate: rate,
			Rejected: true, Reason: rejectReasonNames[reason]}
	}
	s.driftCheck(plan, rate, warm)

	d := s.route(plan, rate, u)
	// Latency is measured on a random 1-in-p2SampleStride subset: the
	// second clock read is the costliest step left on this path, so the
	// sample gates the read itself, not just the accumulator update.
	// The metrics shard pick takes a fresh word — this branch already
	// pays a clock read, and u's former shard bits now feed the JSQ
	// samples (randbits.go).
	if u>>randLatGateShift&(p2SampleStride-1) == 0 {
		s.m.observeLatency(s.now().Sub(start).Seconds(), randv2.Uint64())
	}
	return d
}

// route is the per-decision core that Decide and DecideBatch's exact
// path share once a request is admitted: trial coin, policy pick,
// breaker redirect, then the depth and dispatch counters. u is the
// decision's random word (randbits.go). The admission coin and the
// latency gate stay with the callers: Decide checks admission and reads
// the clock per decision, the exact path once per chunk.
func (s *Server) route(plan *Plan, rate float64, u uint64) Decision {
	station, trial := s.trialPick(u)
	if !trial {
		if plan.jsq != nil {
			station = plan.jsq.PickU(s.jsqBits(u))
		} else {
			station = plan.PickU(s.pickDraw(u))
		}
		if s.breakers.rejects(station) {
			station = s.redirect(plan, station, u)
		}
	}
	if s.depths != nil && s.backend == nil {
		// Router-only JSQ: the route itself is the attempt start; the
		// matching decrement is the caller's ReportOutcome. With a
		// Backend the guard brackets each real attempt instead.
		s.depths.inc(station)
	}
	s.m.countDispatch(station)
	return Decision{Station: station, Plan: plan, Rate: rate, Trial: trial}
}

// pickDraw supplies the static split's uniform variate: from the
// sharded RNG shard u's slice selects, or under DeterministicRNG from
// the seeded serialized generator, which keeps the pinned sequence.
func (s *Server) pickDraw(u uint64) float64 {
	if s.fastRnd == nil {
		return s.rnd.Float64()
	}
	return s.fastRnd.float64U(u >> randPickShardShift)
}

// trialPick diverts a TrialFraction share of dispatches to the
// half-open station currently on probation (if any). The trial coin
// consumes randomness only while a trial station is posted, so the
// DeterministicRNG draw sequence is untouched whenever every breaker
// is closed — the contract the cross-version determinism test pins.
func (s *Server) trialPick(u uint64) (int, bool) {
	ts := s.breakers.trial.Load()
	if ts < 0 {
		return -1, false
	}
	if s.fastRnd != nil {
		if u>>randTrialShift&(1<<randTrialBits-1) >= s.breakers.trialBits {
			return -1, false
		}
	} else if s.rnd.Float64() >= s.breakers.trialFraction {
		return -1, false
	}
	station := int(ts)
	b := &s.breakers.stations[station]
	// Re-check under the coin: the scan may have moved the breaker on
	// since the trial pointer was loaded.
	if b.state.Load() != breakerHalfOpen || b.pinned.Load() {
		return -1, false
	}
	s.breakers.trials.Add(1)
	return station, true
}

// redirect re-draws the station pick once when the chosen station's
// breaker rejects ordinary traffic — the transient window between a
// trip and the shedding re-solve landing. One redraw moves most of
// the misrouted mass; if the redraw is also rejected the original
// pick stands (the plan swap is at most a scan interval away).
// Reusing u's shard-pick slice is sound: the slice only selects which
// SplitMix64 shard advances; the redraw's variate comes from the
// shard's state walk, independent of the first draw.
func (s *Server) redirect(plan *Plan, station int, u uint64) int {
	if alt := plan.PickU(s.pickDraw(u)); !s.breakers.rejects(alt) {
		s.breakers.redirects.Add(1)
		return alt
	}
	return station
}

// jsqBits supplies the random word the power-of-d picker consumes its
// d station samples from. d ≤ 2 fits the per-request word's sample
// slice (randbits.go); d > 2 needs 16 more bits than the word has
// spare and draws a dedicated one. Under DeterministicRNG the samples
// come from the seeded serialized generator so a fixed seed reproduces
// the exact pick sequence (pinned by TestJSQDeterministicSequence).
func (s *Server) jsqBits(u uint64) uint64 {
	if s.fastRnd == nil {
		return s.rnd.Uint64()
	}
	if s.jsqD <= 2 {
		return u >> randSampleShift
	}
	return randv2.Uint64()
}

// admission returns the admissible fraction of the stream and the
// rejection reason for the shed remainder. Overload is shed
// probabilistically so the admitted sub-stream stays a thinned Poisson
// process matching the plan's assumptions: the surviving stations can
// absorb only Capacity before some ρ_i reaches 1.
func (s *Server) admission(plan *Plan, rate float64, warm bool) (float64, rejectReason) {
	if warm && rate > 0 && rate >= plan.Capacity {
		s.maybeResolve(rate, "overload", false)
		return plan.Capacity / rate, rejectAdmission
	}
	if plan.Shed > 0 && plan.Admitted+plan.Shed > 0 {
		return plan.Admitted / (plan.Admitted + plan.Shed), rejectShed
	}
	return 1, rejectAdmission
}

// driftCheck queues a re-solve when the observed rate has drifted past
// the threshold from the plan's λ′.
func (s *Server) driftCheck(plan *Plan, rate float64, warm bool) {
	if warm && rate > 0 && plan.Lambda > 0 {
		if drift := math.Abs(rate-plan.Lambda) / plan.Lambda; drift > s.cfg.DriftThreshold {
			s.maybeResolve(rate, "drift", false)
		}
	}
}

func (s *Server) handleDispatch(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if s.backend != nil {
		// An executed request waits on the backend; a routing decision
		// never blocks, so only the former runs under the deadline.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	res := s.Dispatch(ctx)
	if res.Rejected {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(res.Decision)))
		writeError(w, http.StatusServiceUnavailable,
			"overloaded: observed rate %.4g versus capacity %.4g", res.Rate, res.Plan.Capacity)
		return
	}
	if res.Err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			writeError(w, http.StatusServiceUnavailable, errTimedOut)
			return
		}
		writeError(w, http.StatusBadGateway,
			"backend failed after %d attempts: %v", res.Attempts, res.Err)
		return
	}
	resp := DispatchResponse{
		Station: res.Station, PlanVersion: res.Plan.Version,
		Attempts: res.Attempts, Trial: res.Trial, Hedged: res.Hedged,
	}
	if s.cfg.Names != nil {
		resp.Name = s.cfg.Names[res.Station]
	}
	writeJSON(w, http.StatusOK, resp)
}

// retryAfterSeconds derives the Retry-After hint on a 503 shed. In
// rough order of how actionable the signal is: an overloaded
// estimator suggests waiting for the excess fraction of the window to
// drain; an open breaker suggests waiting until its soonest probe;
// otherwise the soonest the plan itself may change
// (MinResolveInterval).
func (s *Server) retryAfterSeconds(d Decision) int {
	window := s.cfg.Window.Seconds()
	if d.Plan != nil && d.Plan.Capacity > 0 && d.Rate > d.Plan.Capacity {
		// The windowed estimate decays toward capacity only as the
		// excess arrivals age out: the excess fraction of the window is
		// the natural horizon.
		secs := int(math.Ceil((1 - d.Plan.Capacity/d.Rate) * window))
		return clampInt(secs, 1, int(math.Ceil(window)))
	}
	if rem := s.minOpenRemaining(); rem > 0 {
		return clampInt(int(math.Ceil(rem.Seconds())), 1, int(math.Ceil(window)))
	}
	return clampInt(int(math.Ceil(s.cfg.MinResolveInterval.Seconds())), 1, int(math.Ceil(window)))
}

// minOpenRemaining returns the shortest time until any open breaker
// may go half-open (0 when no breaker is open).
func (s *Server) minOpenRemaining() time.Duration {
	nowNs := s.now().UnixNano()
	var best int64
	for i := range s.breakers.stations {
		st := &s.breakers.stations[i]
		if st.state.Load() != breakerOpen {
			continue
		}
		if rem := st.openUntil.Load() - nowNs; rem > 0 && (best == 0 || rem < best) {
			best = rem
		}
	}
	return time.Duration(best)
}

func clampInt(v, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (s *Server) handleGetPlan(w http.ResponseWriter, _ *http.Request) {
	writeBody(w, http.StatusOK, s.plan.Load().appendJSON)
}

func (s *Server) handlePostPlan(w http.ResponseWriter, r *http.Request) {
	deadline := time.Now().Add(s.cfg.RequestTimeout)
	var req struct {
		Lambda float64 `json:"lambda"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if math.IsNaN(req.Lambda) || math.IsInf(req.Lambda, 0) || req.Lambda < 0 {
		writeError(w, http.StatusBadRequest, "lambda %g must be a finite non-negative rate", req.Lambda)
		return
	}
	// The solve waits on solveMu behind any background re-solve, so it
	// runs on its own goroutine and the request gives up at its
	// deadline. A solve that outlives the request still publishes its
	// plan; Close waits for it.
	type solved struct {
		plan     *Plan
		err      error
		panicked any
	}
	done := make(chan solved, 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		var res solved
		defer func() {
			// A panic on this goroutine would end the daemon. Hand it
			// to the handler, which re-raises it where net/http recovers
			// it, as it would had the solve run on the handler's own
			// goroutine; log it in case the handler has given up.
			if res.panicked = recover(); res.panicked != nil {
				s.log.Error("re-solve panicked", "reason", "api", "panic", res.panicked)
			}
			done <- res
		}()
		res.plan, res.err = s.doResolve(resolveReq{lambda: req.Lambda, reason: "api", reject: req.Lambda > 0})
	}()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case res := <-done:
		if res.panicked != nil {
			panic(res.panicked)
		}
		var over *overCeilingError
		switch {
		case errors.As(res.err, &over):
			s.m.reject(rejectAdmission)
			writeError(w, http.StatusServiceUnavailable, "%v", over)
			return
		case res.err != nil:
			writeError(w, http.StatusInternalServerError, "re-solve failed: %v", res.err)
			return
		}
		writeBody(w, http.StatusOK, res.plan.appendJSON)
	case <-timer.C:
		writeError(w, http.StatusServiceUnavailable, errTimedOut)
	}
}

// HealthState is the body of GET /v1/health. Up is the EFFECTIVE
// availability vector — a station counts as up only when the operator
// has not downed it and its circuit breaker is closed.
type HealthState struct {
	Up       []bool          `json:"up"`
	Estimate float64         `json:"estimate"`
	Warm     bool            `json:"warm"`
	Stations []StationHealth `json:"stations,omitempty"`
}

// StationHealth is the per-station detail block of GET /v1/health.
type StationHealth struct {
	Station int    `json:"station"`
	Name    string `json:"name,omitempty"`
	// Up is the effective availability (operator ∧ breaker closed).
	Up bool `json:"up"`
	// OperatorPinned reports an operator "down" pin: the breaker may
	// not readmit the station until an operator "up" lifts it.
	OperatorPinned bool `json:"operator_pinned,omitempty"`
	// Breaker is the circuit state: "closed", "half-open" or "open".
	Breaker string `json:"breaker"`
	Trips   int64  `json:"trips,omitempty"`
	// ErrorRate and Suspicion are the failure detector's live EWMA
	// failure fraction and phi-accrual silence score.
	ErrorRate float64 `json:"error_rate"`
	Suspicion float64 `json:"suspicion"`
	Successes int64   `json:"successes"`
	Errors    int64   `json:"errors"`
	Timeouts  int64   `json:"timeouts"`
	// RampFactor < 1 reports an in-progress capped-weight recovery.
	RampFactor float64 `json:"ramp_factor,omitempty"`
	// OpenRemainingSeconds is the time until an open breaker probes.
	OpenRemainingSeconds float64 `json:"open_remaining_seconds,omitempty"`
}

// breakerRead is one station's breaker state and operator pin, loaded
// together by one health view.
type breakerRead struct {
	state  int8
	pinned bool
}

// healthView reads the availability a health body reports, once per
// station: its breaker state and pin, and from them and the operator
// vector its effective up entry (up only when the operator has not
// downed it and its breaker is closed and unpinned). stationHealth
// reports the same reads, so the body's up vector and each station's
// up, breaker and operator_pinned agree.
func (s *Server) healthView() ([]bool, []breakerRead) {
	s.mu.Lock()
	up := slices.Clone(s.tally.Up())
	s.mu.Unlock()
	brk := make([]breakerRead, len(up))
	for i := range up {
		b := &s.breakers.stations[i]
		r := breakerRead{state: int8(b.state.Load()), pinned: b.pinned.Load()}
		brk[i] = r
		up[i] = up[i] && int32(r.state) == breakerClosed && !r.pinned
	}
	return up, brk
}

// stationHealth reads station i's detail block from live state. up and
// brk are the station's entries in the health view the body carries.
func (s *Server) stationHealth(i int, up bool, brk breakerRead, now time.Time) StationHealth {
	nowNs := now.UnixNano()
	b := &s.breakers.stations[i]
	state := int32(brk.state)
	suc, errs, tmo := s.tracker.totals(i)
	sh := StationHealth{
		Station:        i,
		Up:             up,
		OperatorPinned: brk.pinned,
		Breaker:        breakerStateNames[state],
		Trips:          b.trips.Load(),
		ErrorRate:      s.tracker.errorRate(i),
		Suspicion:      s.tracker.suspicion(i, nowNs),
		Successes:      suc,
		Errors:         errs,
		Timeouts:       tmo,
	}
	if s.cfg.Names != nil {
		sh.Name = s.cfg.Names[i]
	}
	// A ramp only runs on a breaker this view read as closed.
	if state == breakerClosed {
		if f := s.rampFactor(i, now); f < 1 {
			sh.RampFactor = f
		}
	}
	if state == breakerOpen {
		if rem := b.openUntil.Load() - nowNs; rem > 0 {
			sh.OpenRemainingSeconds = time.Duration(rem).Seconds()
		}
	}
	return sh
}

// appendHealth appends the health view, HealthState, from live state:
// healthView read once, then each station's block appended as it is
// read, so no n-wide []StationHealth is built.
//
// At 10,000 stations the loop runs for about a millisecond without
// allocating, so on one P nothing else, the collector's background
// worker included, is scheduled until it ends. Yielding every
// healthYieldEvery stations lets the worker keep pace: without the
// yields replan-fleet's peak RSS read 1.8 MB higher (34.3 against
// 32.5 MB, 10 runs of 20 s each on a 2-vCPU host), for about 5% less
// CPU per op.
func (s *Server) appendHealth(b []byte, enc *bodyEncoder) []byte {
	up, brk := s.healthView()
	rate, warm := s.Estimate()
	now := s.now()
	b = appendHealthHead(b, enc, up, rate, warm, len(up))
	if len(up) > 0 {
		b = append(b, `,"stations":[`...)
		for i := range up {
			if i > 0 {
				b = append(b, ',')
			}
			sh := s.stationHealth(i, up[i], brk[i], now)
			b = sh.appendJSON(b, enc)
			if i%healthYieldEvery == healthYieldEvery-1 {
				runtime.Gosched()
			}
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// healthYieldEvery is how many stations' blocks appendHealth appends
// between yields of the processor.
const healthYieldEvery = 1024

func (s *Server) handleGetHealth(w http.ResponseWriter, _ *http.Request) {
	writeBody(w, http.StatusOK, s.appendHealth)
}

// handlePostHealth applies an operator availability override. "Down"
// pins the station (breaker frozen, station excluded until an
// operator lifts it); "up" clears the pin AND force-resets the
// breaker to closed at full weight — no recovery ramp, the operator
// has vouched for the station. See the Handler doc block.
func (s *Server) handlePostHealth(w http.ResponseWriter, r *http.Request) {
	// Pointer fields tell a missing field from its zero value: a body
	// without "station" or "up" must not pin station 0 down.
	var req struct {
		Station *int  `json:"station"`
		Up      *bool `json:"up"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Station == nil || req.Up == nil {
		writeError(w, http.StatusBadRequest, `bad request: body must set both "station" and "up"`)
		return
	}
	station, up := *req.Station, *req.Up
	if station < 0 || station >= s.group.N() {
		writeError(w, http.StatusBadRequest, "station %d out of range [0, %d)", station, s.group.N())
		return
	}
	changed := s.setOperatorUp(station, up)
	b := &s.breakers.stations[station]
	breakerReset := false
	if up {
		b.pinned.Store(false)
		breakerReset = s.breakers.resetTo(b) != breakerClosed
		s.breakers.setRamp(b, 0)
		s.tracker.resetError(station)
		s.scanMu.Lock()
		suc, errs, tmo := s.tracker.totals(station)
		s.scanVol[station] = suc + errs + tmo
		s.scanMu.Unlock()
	} else {
		b.pinned.Store(true)
	}
	s.breakers.snapshotTrial()
	if changed || breakerReset {
		s.log.Info("station health changed by operator",
			"station", station, "up", up, "breaker_reset", breakerReset)
		s.maybeResolve(0, "health", true)
	}
	writeBody(w, http.StatusAccepted, s.appendHealth)
}

// setOperatorUp records the operator's word on station i in the tally,
// in O(1), and reports whether it changed the station.
func (s *Server) setOperatorUp(i int, up bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tally.Set(i, up)
}

// handleObserve ingests one externally executed outcome:
// {"station": i, "outcome": "success"|"error"|"timeout",
// "latency_seconds": x}. It exists for deployments where bladed only
// routes and the caller runs the work — without outcomes the failure
// detector is blind.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Station        int     `json:"station"`
		Outcome        string  `json:"outcome"`
		LatencySeconds float64 `json:"latency_seconds"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	kind := numOutcomes
	for k := range outcomeNames {
		if outcomeNames[k] == req.Outcome {
			kind = Outcome(k)
		}
	}
	if kind >= numOutcomes {
		writeError(w, http.StatusBadRequest,
			"unknown outcome %q (want success, error or timeout)", req.Outcome)
		return
	}
	// A latency the tracker cannot hold as a time.Duration would be
	// dropped after the 202; refuse it instead.
	if req.LatencySeconds < 0 || req.LatencySeconds*float64(time.Second) >= math.MaxInt64 {
		writeError(w, http.StatusBadRequest, "latency_seconds %g outside [0, %.6g)",
			req.LatencySeconds, math.MaxInt64/float64(time.Second))
		return
	}
	latency := time.Duration(req.LatencySeconds * float64(time.Second))
	if err := s.ReportOutcome(req.Station, kind, latency); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]bool{"recorded": true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.writeTo(w, s.plan.Load(), s.est.Rate(), s.est.Warm())
	s.writeResilienceMetrics(w)
}

// maybeResolve queues a background re-solve. Drift- and
// overload-triggered requests are rate-limited by MinResolveInterval;
// health events force through (a failed station must stop receiving
// load as fast as the solver allows).
//
//bladelint:allow lock -- cold control branch: reached from Decide only when drift/overload trips, and rate-limited by MinResolveInterval
func (s *Server) maybeResolve(lambda float64, reason string, force bool) {
	if !force {
		s.mu.Lock()
		recent := !s.lastResolve.IsZero() && s.now().Sub(s.lastResolve) < s.cfg.MinResolveInterval
		s.mu.Unlock()
		if recent {
			return
		}
	}
	select {
	case s.resolveCh <- resolveReq{lambda: lambda, reason: reason}:
	default: // one already pending; it will observe fresh state
	}
}

// scanner is the background goroutine driving the failure detector:
// every ScanInterval it evaluates trip conditions, advances open
// breakers toward half-open, closes breakers whose trials succeeded,
// and refreshes the hedge delay from the observed p95.
func (s *Server) scanner() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.Breaker.ScanInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.healthScan(s.now())
		}
	}
}

// healthScan runs one failure-detector pass. Exported behaviour worth
// pinning: trips and breaker-driven closes force a re-solve (a dead
// station must shed as fast as the solver allows, edge-triggered by
// the state CAS so a station trips at most once per open cycle);
// ramp-weight refreshes go through the MinResolveInterval rate limit
// — the hysteresis that keeps a recovering station from thrashing the
// solver. The end of the ramps is level-triggered: while the published
// plan carries a ramp and no station is still ramping, every scan
// requests the re-solve that drops it, so a request the rate limit
// turned away is made again at the next scan.
func (s *Server) healthScan(now time.Time) {
	if s.cfg.Guard.Hedge {
		if q := s.m.latencyQuantile95(); q > 0 {
			d := time.Duration(q * float64(time.Second))
			if d < s.cfg.Guard.HedgeMinDelay {
				d = s.cfg.Guard.HedgeMinDelay
			}
			s.guard.hedgeDelay.Store(int64(d))
		}
	}
	if s.breakers.disabled {
		return
	}
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	nowNs := now.UnixNano()
	plan := s.plan.Load()
	reason := ""
	force := false
	rampActive := false
	for i := range s.breakers.stations {
		st := &s.breakers.stations[i]
		if st.pinned.Load() {
			// The operator owns this station. A ramp it was pinned in
			// still ends with its window, or the plan would keep it.
			if rs := st.rampStart.Load(); rs > 0 && nowNs-rs >= int64(s.cfg.Breaker.RampWindow) {
				s.breakers.setRamp(st, 0)
			}
			continue
		}
		switch st.state.Load() {
		case breakerClosed:
			suc, errs, tmo := s.tracker.totals(i)
			vol := suc + errs + tmo - s.scanVol[i]
			erate := s.tracker.errorRate(i)
			phi := s.tracker.suspicion(i, nowNs)
			loaded := i < len(plan.Rates) && plan.Rates[i] > 0
			if (vol >= int64(s.cfg.Breaker.MinVolume) && erate >= s.cfg.Breaker.ErrorThreshold) ||
				(loaded && phi >= s.cfg.Breaker.PhiThreshold) {
				if s.breakers.casState(st, breakerClosed, breakerOpen) {
					s.breakers.reopen(st, nowNs)
					s.breakers.setRamp(st, 0)
					s.scanVol[i] = suc + errs + tmo
					s.log.Warn("breaker tripped; shedding station",
						"station", i, "error_rate", erate, "suspicion", phi, "volume", vol)
					reason, force = "breaker-trip", true
				}
				continue
			}
			if rs := st.rampStart.Load(); rs > 0 {
				if nowNs-rs >= int64(s.cfg.Breaker.RampWindow) {
					s.breakers.setRamp(st, 0)
				} else {
					rampActive = true
				}
			}
		case breakerOpen:
			if nowNs >= st.openUntil.Load() {
				st.trialOK.Store(0)
				// Restart the silence clock: suspicion now measures the
				// probe stream, not the outage that tripped us.
				s.tracker.touch(i, nowNs)
				if s.breakers.casState(st, breakerOpen, breakerHalfOpen) {
					s.log.Info("breaker half-open; admitting trial traffic",
						"station", i, "trial_fraction", s.breakers.trialFraction)
				}
			}
		case breakerHalfOpen:
			if st.trialOK.Load() >= int64(s.cfg.Breaker.TrialSuccesses) {
				s.breakers.resetTo(st)
				s.breakers.setRamp(st, nowNs)
				s.tracker.resetError(i)
				suc, errs, tmo := s.tracker.totals(i)
				s.scanVol[i] = suc + errs + tmo
				s.log.Info("breaker closed; ramping station back in",
					"station", i, "ramp_window", s.cfg.Breaker.RampWindow)
				reason, force = "breaker-close", true
			}
		}
	}
	s.breakers.snapshotTrial()
	switch {
	case reason != "":
		s.maybeResolve(0, reason, force)
	case rampActive:
		s.maybeResolve(0, "ramp", false)
	case plan.Ramp != nil && s.breakers.ramping.Load() == 0:
		s.maybeResolve(0, "ramp-complete", false)
	}
}

// rampFactor returns the capped-weight multiplier for a station in
// its recovery window: linear from rampMinFactor at breaker close to
// 1 at RampWindow later (1 when no ramp is active).
func (s *Server) rampFactor(i int, now time.Time) float64 {
	st := &s.breakers.stations[i]
	rs := st.rampStart.Load()
	if rs <= 0 || st.state.Load() != breakerClosed {
		return 1
	}
	elapsed := float64(now.UnixNano() - rs)
	window := float64(s.cfg.Breaker.RampWindow)
	if elapsed >= window {
		return 1
	}
	if elapsed < 0 {
		elapsed = 0
	}
	return rampMinFactor + (1-rampMinFactor)*elapsed/window
}

// applyBreakers overlays breaker exclusions onto t, the re-solve's own
// copy of the operator tally, and returns the ramp-in weights of the
// recovering stations (nil when none ramps), in one pass over the
// breakers. While every breaker is closed and no ramp runs, which the
// breakerSet's exception count tells in O(1), there is nothing to
// overlay: a pinned station is operator down, so t has it down
// already. If the overlay would leave no station serving, the breaker
// exclusions are ignored — routing somewhere beats routing nowhere —
// and the breakers are left to re-trip on the evidence.
func (s *Server) applyBreakers(t *core.Tally) []float64 {
	if s.breakers.disabled || s.breakers.exceptions() == 0 {
		return nil
	}
	var excluded []int
	var ramp []float64
	now := s.now()
	for i := range s.breakers.stations {
		if t.IsUp(i) && s.breakers.rejects(i) {
			t.Set(i, false)
			excluded = append(excluded, i)
		}
		if f := s.rampFactor(i, now); f < 1 {
			if ramp == nil {
				ramp = make([]float64, len(s.breakers.stations))
				for j := range ramp {
					ramp[j] = 1
				}
			}
			ramp[i] = f
		}
	}
	if t.Survivors() == 0 {
		for _, i := range excluded {
			t.Set(i, true)
		}
	}
	return ramp
}

// resolver is the background goroutine that serializes re-solves.
func (s *Server) resolver() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case req := <-s.resolveCh:
			if _, err := s.doResolve(req); err != nil {
				s.log.Error("re-solve failed; keeping previous plan",
					"reason", req.reason, "err", err)
			}
		}
	}
}

// overCeilingError is doResolve's refusal of a resolveReq.reject rate
// at or beyond the admission ceiling.
type overCeilingError struct{ lambda, ceiling float64 }

func (e *overCeilingError) Error() string {
	return fmt.Sprintf("requested rate %.6g at or beyond admission ceiling %.6g", e.lambda, e.ceiling)
}

// doResolve re-solves the optimization against the current
// availability, warm-starting from the live plan's multiplier, and
// atomically publishes the result. The operator tally is copied once;
// the breakers are overlaid on the copy, which the solve reads and the
// plan echoes. On error the previous plan stays live (with every
// station down the stream has nowhere better to go; the error is
// logged and counted).
func (s *Server) doResolve(req resolveReq) (*Plan, error) {
	s.solveMu.Lock()
	defer s.solveMu.Unlock()
	cur := s.plan.Load()
	s.mu.Lock()
	up := s.tally.Clone()
	s.mu.Unlock()
	ramp := s.applyBreakers(up)

	lambda := req.lambda
	if lambda <= 0 {
		if rate, warm := s.Estimate(); warm && rate > 0 {
			lambda = rate
		} else {
			// The demanded rate, not cur.Lambda: after a shed the plan's
			// λ′ is only what the survivors could absorb, and reusing it
			// would keep the shed in force after they recover.
			lambda = cur.Admitted + cur.Shed
		}
	}
	// The ceiling is taken over the very stations the solve counts, so
	// a rate admitted here is never shed.
	if req.reject {
		if ceiling := s.fleet.AdmissionCeiling(up, s.cfg.Opts); lambda >= ceiling {
			return nil, &overCeilingError{lambda, ceiling}
		}
	}
	s.mu.Lock()
	s.lastResolve = s.now()
	s.mu.Unlock()
	opts := s.cfg.Opts
	opts.WarmPhi = cur.Phi
	plan, err := buildPlan(s.fleet, lambda, up, opts, cur.Version+1, s.now(), ramp, s.jsqD, s.depths)
	s.m.resolved(err)
	if err != nil {
		return nil, err
	}
	s.plan.Store(plan)
	s.log.Info("plan swapped",
		"reason", req.reason, "version", plan.Version, "lambda", plan.Lambda,
		"survivors", plan.Survivors, "shed", plan.Shed,
		"avg_response_time", plan.AvgResponseTime)
	return plan, nil
}

// errTimedOut is the error message of every 503 a request deadline
// causes.
const errTimedOut = "request timed out"

// decodeJSON reads the request body into v under the request deadline
// and reports whether the handler may go on; when it may not, the
// error answer is written: 503 when the body stalled past the
// deadline, 400 otherwise. An empty body leaves v at its defaults.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	// A connection read deadline, on the wall clock: Config.Now may be
	// virtual. Recorders and wrappers without deadlines answer
	// ErrNotSupported and read unbounded, as there is no peer to stall.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, errTimedOut)
		return false
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return false
	}
	// With the body read, lift the deadline: the server's idle read on
	// the connection must not time out while the handler still works,
	// which would cancel this and every later request's context.
	_ = rc.SetReadDeadline(time.Time{})
	if len(body) > 0 {
		if err := json.Unmarshal(body, v); err != nil {
			writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return false
		}
	}
	return true
}

// writeJSON writes v as compact JSON. The encoder marshals into its
// own buffer and hands the ResponseWriter one write.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
