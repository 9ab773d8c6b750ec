package serve

import (
	"context"
	"errors"
	"fmt"
	randv2 "math/rand/v2"
	"sync/atomic"
	"time"
)

// Backend executes one admitted request against the chosen station and
// reports how it went. When Config.Backend is set the daemon stops
// being a pure router: Server.Dispatch (and POST /v1/dispatch) run the
// call through the guard — per-attempt timeouts, budgeted retries with
// decorrelated-jitter backoff, optional hedging — and every attempt's
// outcome feeds the failure detector.
type Backend func(ctx context.Context, station int) error

// ErrShed reports that admission control rejected the request before
// any backend attempt was made.
var ErrShed = errors.New("serve: request shed by admission control")

// GuardConfig tunes the guarded backend dispatch wrapper. The zero
// value takes all defaults; it is ignored when Config.Backend is nil.
type GuardConfig struct {
	// AttemptTimeout bounds each backend attempt. Default 1s.
	AttemptTimeout time.Duration
	// MaxAttempts bounds attempts per request (first try included).
	// Default 3.
	MaxAttempts int
	// RetryBudget is the sustained retries-per-request ratio: each
	// arriving request earns this many retry tokens and each retry
	// spends one, so retry amplification is capped at 1+RetryBudget
	// even when every backend call fails. Default 0.1.
	RetryBudget float64
	// RetryBurst caps the retry tokens banked during healthy periods.
	// Default 10.
	RetryBurst int
	// BackoffBase/BackoffCap bound the decorrelated-jitter backoff
	// between attempts: sleep ~ U[base, 3·prev] clamped to cap.
	// Defaults 5ms and 500ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Hedge enables a second, racing attempt when the first has not
	// completed after the observed p95 latency (idempotent workloads
	// only — both attempts may execute).
	Hedge bool
	// HedgeMinDelay floors the hedge delay while the latency estimate
	// is cold. Default 10ms.
	HedgeMinDelay time.Duration
}

func (c *GuardConfig) withDefaults() {
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 0.1
	}
	if c.RetryBurst <= 0 {
		c.RetryBurst = 10
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.BackoffCap < c.BackoffBase {
		c.BackoffCap = 500 * time.Millisecond
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = 10 * time.Millisecond
	}
}

// retryTokenScale is the fixed-point scale of the retry-budget bucket:
// fractional earn rates (0.1 token per request) accumulate exactly in
// integer atomics.
const retryTokenScale = 1024

// guardState is the wrapper's shared runtime state — a token bucket
// and operational counters, all atomics.
type guardState struct {
	// tokens is the retry budget in retryTokenScale fixed point.
	tokens    atomic.Int64
	earn      int64 // tokens earned per arriving request (scaled)
	maxTokens int64 // bucket cap (scaled)
	// hedgeDelay is the current hedge trigger in nanoseconds,
	// refreshed by the health scan from the observed p95.
	hedgeDelay atomic.Int64

	attempts      atomic.Int64
	retries       atomic.Int64
	retriesDenied atomic.Int64
	hedges        atomic.Int64
	hedgeWins     atomic.Int64
}

func (g *guardState) init(cfg GuardConfig) {
	g.earn = int64(cfg.RetryBudget * retryTokenScale)
	g.maxTokens = int64(cfg.RetryBurst) * retryTokenScale
	g.tokens.Store(g.maxTokens)
	g.hedgeDelay.Store(int64(cfg.HedgeMinDelay))
}

// onRequest credits the budget for one arriving request.
func (g *guardState) onRequest() {
	for {
		v := g.tokens.Load()
		n := v + g.earn
		if n > g.maxTokens {
			n = g.maxTokens
		}
		if n == v || g.tokens.CompareAndSwap(v, n) {
			return
		}
	}
}

// spendRetry withdraws one whole retry token, refusing when the
// bucket cannot cover it — the property that stops retries from
// amplifying an outage.
func (g *guardState) spendRetry() bool {
	for {
		v := g.tokens.Load()
		if v < retryTokenScale {
			return false
		}
		if g.tokens.CompareAndSwap(v, v-retryTokenScale) {
			return true
		}
	}
}

// DispatchResult reports one guarded dispatch: the routing decision,
// how many attempts ran, whether a hedge fired and won, and the final
// error (nil on success, ErrShed when admission rejected the request).
type DispatchResult struct {
	Decision
	Attempts int
	Hedged   bool
	HedgeWon bool
	Err      error
}

// Dispatch routes one request and, when a Backend is configured,
// executes it under the guard: per-attempt timeouts, retries on fresh
// stations under the retry budget with decorrelated-jitter backoff,
// and optional hedging. Every attempt's outcome is recorded for the
// failure detector. Without a Backend it degrades to Decide.
func (s *Server) Dispatch(ctx context.Context) DispatchResult {
	d := s.Decide()
	res := DispatchResult{Decision: d}
	if d.Rejected {
		res.Err = ErrShed
		return res
	}
	if s.backend == nil {
		return res
	}
	g := &s.cfg.Guard
	s.guard.onRequest()
	station := d.Station
	prev := g.BackoffBase
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		// Probes to a half-open station must not hedge: the hedge
		// would mask exactly the latency the trial is measuring.
		won, err := s.attempt(ctx, station, g.Hedge && !d.Trial, &res)
		if err == nil {
			res.Station = won
			res.Err = nil
			return res
		}
		res.Err = err
		if attempt >= g.MaxAttempts || ctx.Err() != nil {
			return res
		}
		if !s.guard.spendRetry() {
			s.guard.retriesDenied.Add(1)
			return res
		}
		s.guard.retries.Add(1)
		sleep := decorrelatedJitter(g.BackoffBase, g.BackoffCap, prev)
		prev = sleep
		t := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			t.Stop()
			return res
		case <-t.C:
		}
		station = s.repick(station)
	}
}

// attempt runs one guarded backend call. With hedge set, a second
// attempt on a different station races the first once the observed
// p95 delay elapses; the first completion wins and the loser's
// context is cancelled. Returns the station whose attempt produced
// the returned error/success.
func (s *Server) attempt(ctx context.Context, station int, hedge bool, res *DispatchResult) (int, error) {
	actx, cancel := context.WithTimeout(ctx, s.cfg.Guard.AttemptTimeout)
	defer cancel()
	if !hedge {
		return station, s.call(actx, station)
	}
	type completion struct {
		station int
		err     error
		hedged  bool
	}
	ch := make(chan completion, 2)
	go func() { ch <- completion{station, s.call(actx, station), false} }()
	timer := time.NewTimer(time.Duration(s.guard.hedgeDelay.Load()))
	defer timer.Stop()
	select {
	case first := <-ch:
		return first.station, first.err
	case <-actx.Done():
		first := <-ch
		return first.station, first.err
	case <-timer.C:
	}
	second := s.repick(station)
	s.guard.hedges.Add(1)
	res.Hedged = true
	go func() { ch <- completion{second, s.call(actx, second), true} }()
	first := <-ch
	if first.err == nil {
		cancel() // release the loser promptly
		if first.hedged {
			s.guard.hedgeWins.Add(1)
			res.HedgeWon = true
		}
		return first.station, nil
	}
	other := <-ch
	if other.err == nil {
		if other.hedged {
			s.guard.hedgeWins.Add(1)
			res.HedgeWon = true
		}
		return other.station, nil
	}
	return first.station, first.err
}

// call runs the backend once against a station, classifies the result
// and feeds the failure detector. A cancellation that the caller's
// own context caused (hedge loser, client gone) is not held against
// the station.
func (s *Server) call(ctx context.Context, station int) error {
	if s.depths != nil {
		// JSQ depth brackets the real attempt: retries and hedges each
		// count the station actually holding the work. The deferred
		// decrement also covers the uncharged-cancellation early return.
		s.depths.inc(station)
		defer s.depths.dec(station)
	}
	t0 := s.now()
	err := s.backend(ctx, station)
	s.guard.attempts.Add(1)
	if err != nil && errors.Is(err, context.Canceled) {
		return err
	}
	kind := OutcomeSuccess
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			kind = OutcomeTimeout
		} else {
			kind = OutcomeError
		}
	}
	s.recordOutcome(station, kind, s.now().Sub(t0).Seconds())
	return err
}

// repick redraws a station from the live plan for a retry or hedge,
// avoiding the failed station and breaker-rejected stations when a
// few redraws suffice. With a single surviving station the original
// pick comes back — retrying the same place beats failing outright.
func (s *Server) repick(avoid int) int {
	plan := s.plan.Load()
	pick := avoid
	for try := 0; try < 4; try++ {
		pick = plan.PickU(s.rnd.Float64())
		if pick != avoid && !s.breakers.rejects(pick) {
			return pick
		}
	}
	return pick
}

// decorrelatedJitter is the AWS architecture-blog backoff: each sleep
// is uniform on [base, 3·prev], clamped to cap. It decorrelates
// retry storms (unlike exponential-with-equal-jitter, no two clients
// share a deterministic envelope) while still growing geometrically
// in expectation.
func decorrelatedJitter(base, limit, prev time.Duration) time.Duration {
	if prev < base {
		prev = base
	}
	span := int64(3*prev - base)
	d := base
	if span > 0 {
		d += time.Duration(randv2.Int64N(span))
	}
	if d > limit {
		d = limit
	}
	return d
}

// ReportOutcome feeds one externally executed completion into the
// failure detector — for deployments where bladed only routes and the
// caller runs the work itself. latency may be negative when unknown.
func (s *Server) ReportOutcome(station int, kind Outcome, latency time.Duration) error {
	if station < 0 || station >= s.group.N() {
		return fmt.Errorf("serve: station %d out of range [0, %d)", station, s.group.N())
	}
	if kind >= numOutcomes {
		return fmt.Errorf("serve: unknown outcome %d", kind)
	}
	if s.depths != nil && s.backend == nil {
		// Router-only JSQ: the external completion closes the in-flight
		// interval Decide opened (zero-clamped against double reports).
		s.depths.dec(station)
	}
	s.recordOutcome(station, kind, latency.Seconds())
	return nil
}

// recordOutcome is the shared completion sink: tracker statistics plus
// breaker reaction. It sits on the serving hot path when a Backend is
// configured, so it follows the same lock-free discipline as Decide.
//
//bladelint:hotpath
func (s *Server) recordOutcome(station int, kind Outcome, latencySeconds float64) {
	at := s.now().UnixNano()
	u := randv2.Uint64()
	s.tracker.record(station, kind, at, latencySeconds, u)
	s.breakers.onOutcome(station, kind, at)
}
