package serve

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

var errBackendDown = errors.New("backend down")

func TestDispatchExecutesBackendOnSuccess(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, func(c *Config) {
		c.Backend = func(_ context.Context, station int) error {
			calls.Add(1)
			return nil
		}
	})
	res := s.Dispatch(context.Background())
	if res.Err != nil || res.Attempts != 1 || res.Rejected {
		t.Fatalf("dispatch = %+v", res)
	}
	if calls.Load() != 1 {
		t.Fatalf("backend called %d times, want 1", calls.Load())
	}
	suc, errs, tmo := s.tracker.totals(res.Station)
	if suc != 1 || errs != 0 || tmo != 0 {
		t.Fatalf("outcome totals %d/%d/%d, want 1/0/0", suc, errs, tmo)
	}
}

func TestDispatchWithoutBackendOnlyRoutes(t *testing.T) {
	s := newTestServer(t, nil)
	res := s.Dispatch(context.Background())
	if res.Err != nil || res.Attempts != 0 {
		t.Fatalf("router-only dispatch = %+v", res)
	}
	if s.guard.attempts.Load() != 0 {
		t.Fatal("router-only dispatch ran a backend attempt")
	}
}

func TestDispatchRetriesOnFreshStation(t *testing.T) {
	var calls atomic.Int64
	var first atomic.Int64
	first.Store(-1)
	s := newTestServer(t, func(c *Config) {
		c.Guard.BackoffBase = time.Millisecond
		c.Guard.BackoffCap = 2 * time.Millisecond
		c.Backend = func(_ context.Context, station int) error {
			if calls.Add(1) == 1 {
				first.Store(int64(station))
				return errBackendDown
			}
			return nil
		}
	})
	res := s.Dispatch(context.Background())
	if res.Err != nil || res.Attempts != 2 {
		t.Fatalf("dispatch = %+v, want success on attempt 2", res)
	}
	if s.guard.retries.Load() != 1 {
		t.Fatalf("retries %d, want 1", s.guard.retries.Load())
	}
	if _, errs, _ := s.tracker.totals(int(first.Load())); errs != 1 {
		t.Fatalf("failed attempt not recorded against station %d", first.Load())
	}
}

func TestRetryBudgetStopsAmplification(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Guard.RetryBudget = 0.0001 // earns ~nothing per request
		c.Guard.RetryBurst = 1       // one banked token total
		c.Guard.BackoffBase = time.Millisecond
		c.Guard.BackoffCap = 2 * time.Millisecond
		c.Backend = func(context.Context, int) error { return errBackendDown }
	})
	// First dispatch spends the only banked token: 2 attempts, then the
	// third is denied.
	res := s.Dispatch(context.Background())
	if res.Err == nil || res.Attempts != 2 {
		t.Fatalf("first dispatch = %+v, want 2 attempts and an error", res)
	}
	// Subsequent dispatches get no retries at all.
	res = s.Dispatch(context.Background())
	if res.Err == nil || res.Attempts != 1 {
		t.Fatalf("post-exhaustion dispatch = %+v, want 1 attempt", res)
	}
	if s.guard.retriesDenied.Load() < 2 {
		t.Fatalf("retriesDenied %d, want ≥ 2", s.guard.retriesDenied.Load())
	}
}

func TestAttemptTimeoutClassifiedAsTimeout(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Guard.AttemptTimeout = 10 * time.Millisecond
		c.Guard.MaxAttempts = 1
		c.Backend = func(ctx context.Context, _ int) error {
			<-ctx.Done()
			return ctx.Err()
		}
	})
	res := s.Dispatch(context.Background())
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", res.Err)
	}
	suc, errs, tmo := s.tracker.totals(res.Station)
	if tmo != 1 || suc != 0 || errs != 0 {
		t.Fatalf("outcome totals %d/%d/%d, want the timeout recorded", suc, errs, tmo)
	}
}

func TestHedgedAttemptWinsOnSlowFirst(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, func(c *Config) {
		c.Guard.Hedge = true
		c.Guard.HedgeMinDelay = 5 * time.Millisecond
		c.Guard.AttemptTimeout = time.Second
		c.Backend = func(ctx context.Context, _ int) error {
			if calls.Add(1) == 1 {
				// First call parks until cancelled — the straggler the
				// hedge exists to cut off.
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		}
	})
	res := s.Dispatch(context.Background())
	if res.Err != nil {
		t.Fatalf("hedged dispatch failed: %v", res.Err)
	}
	if !res.Hedged || !res.HedgeWon {
		t.Fatalf("dispatch = %+v, want hedged win", res)
	}
	if s.guard.hedges.Load() != 1 || s.guard.hedgeWins.Load() != 1 {
		t.Fatalf("hedges %d wins %d, want 1/1",
			s.guard.hedges.Load(), s.guard.hedgeWins.Load())
	}
	// The straggler was cancelled, and a caller-caused cancellation is
	// not held against its station: no error outcome anywhere.
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < s.group.N(); i++ {
		if _, errs, tmo := s.tracker.totals(i); errs+tmo != 0 {
			t.Fatalf("station %d charged %d errors %d timeouts for a cancelled hedge loser", i, errs, tmo)
		}
	}
}

func TestDispatchShedReturnsErrShed(t *testing.T) {
	// A startup-overloaded single-station system sheds probabilistically.
	g := &model.Group{Servers: []model.Server{{Size: 1, Speed: 1, SpecialRate: 0.2}}, TaskSize: 1}
	s := newTestServer(t, func(c *Config) {
		c.Group = g
		c.Lambda = 10 // far beyond the ~0.8 ceiling
		c.Backend = func(context.Context, int) error { return nil }
	})
	if s.Plan().Shed <= 0 {
		t.Fatal("test premise: startup plan must shed")
	}
	for i := 0; i < 10000; i++ {
		if res := s.Dispatch(context.Background()); res.Rejected {
			if !errors.Is(res.Err, ErrShed) {
				t.Fatalf("rejected dispatch err = %v, want ErrShed", res.Err)
			}
			if res.Attempts != 0 {
				t.Fatalf("shed request ran %d backend attempts", res.Attempts)
			}
			return
		}
	}
	t.Fatal("no dispatch shed in 10000 tries at 12× overload")
}

func TestDecorrelatedJitterBounds(t *testing.T) {
	base, limit := 5*time.Millisecond, 100*time.Millisecond
	prev := base
	grew := false
	for i := 0; i < 2000; i++ {
		d := decorrelatedJitter(base, limit, prev)
		if d < base || d > limit {
			t.Fatalf("jitter %v outside [%v, %v]", d, base, limit)
		}
		if d > prev {
			grew = true
		}
		prev = d
	}
	if !grew {
		t.Fatal("jitter never grew past its predecessor in 2000 draws")
	}
	// A corrupt (tiny) prev is clamped up to base, not underflowed.
	if d := decorrelatedJitter(base, limit, 0); d < base || d > limit {
		t.Fatalf("jitter from zero prev = %v", d)
	}
}

func TestReportOutcomeValidation(t *testing.T) {
	s := newTestServer(t, nil)
	if err := s.ReportOutcome(0, OutcomeError, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, errs, _ := s.tracker.totals(0); errs != 1 {
		t.Fatal("reported outcome not recorded")
	}
	if err := s.ReportOutcome(-1, OutcomeSuccess, 0); err == nil {
		t.Error("negative station accepted")
	}
	if err := s.ReportOutcome(s.group.N(), OutcomeSuccess, 0); err == nil {
		t.Error("out-of-range station accepted")
	}
	if err := s.ReportOutcome(0, numOutcomes, 0); err == nil {
		t.Error("unknown outcome accepted")
	}
}

func TestObserveEndpointFeedsDetector(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	w := postJSON(t, h, "/v1/observe", map[string]any{
		"station": 1, "outcome": "error", "latency_seconds": 0.05,
	})
	if w.Code != 202 {
		t.Fatalf("observe status %d: %s", w.Code, w.Body)
	}
	if _, errs, _ := s.tracker.totals(1); errs != 1 {
		t.Fatal("observed outcome not recorded")
	}
	w = postJSON(t, h, "/v1/observe", map[string]any{"station": 1, "outcome": "sideways"})
	if w.Code != 400 || !strings.Contains(w.Body.String(), "unknown outcome") {
		t.Fatalf("bad outcome: %d %s", w.Code, w.Body)
	}
	if w := postJSON(t, h, "/v1/observe", map[string]any{"station": 99, "outcome": "success"}); w.Code != 400 {
		t.Fatalf("out-of-range station status %d", w.Code)
	}
	// A latency the tracker would drop after the 202 is refused: negative,
	// or past time.Duration's range (math.MaxInt64 ns ≈ 9.22e9 s).
	for _, latency := range []float64{-1, 1e300, 9.3e9} {
		w := postJSON(t, h, "/v1/observe", map[string]any{"station": 1, "outcome": "success", "latency_seconds": latency})
		if w.Code != 400 || !strings.Contains(w.Body.String(), "latency_seconds") {
			t.Fatalf("latency %g: %d %s, want 400", latency, w.Code, w.Body)
		}
	}
	if suc, _, _ := s.tracker.totals(1); suc != 0 {
		t.Fatalf("%d refused outcomes recorded", suc)
	}
	if w := postJSON(t, h, "/v1/observe", map[string]any{"station": 1, "outcome": "success", "latency_seconds": 9.2e9}); w.Code != 202 {
		t.Fatalf("latency 9.2e9 s: %d %s, want 202", w.Code, w.Body)
	}
}

func TestResilienceMetricsExposed(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Backend = func(context.Context, int) error { return nil }
	})
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if w := postJSON(t, h, "/v1/dispatch", nil); w.Code != 200 {
			t.Fatalf("dispatch status %d", w.Code)
		}
	}
	body := getPath(t, h, "/metrics").Body.String()
	for _, want := range []string{
		`bladed_breaker_state{station="0"} 0`,
		`bladed_breaker_trips_total{station="0"} 0`,
		"bladed_breaker_redirects_total 0",
		"bladed_breaker_trials_total 0",
		`bladed_outcomes_total{station=`,
		`bladed_outcome_error_rate{station="0"} 0`,
		`bladed_outcome_suspicion{station=`,
		"bladed_retry_budget_tokens 10",
		"bladed_backend_attempts_total 3",
		"bladed_retries_total 0",
		"bladed_retries_denied_total 0",
		"bladed_hedges_total 0",
		"bladed_hedge_wins_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
