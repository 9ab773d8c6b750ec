// Package faultinject is the chaos layer: a simulated backend for the
// serving daemon that injects per-station error rates, latency
// inflation, and blackholes — driven either by live operator commands
// (the /v1/faults test hook) or by the deterministic seeded failure
// schedules of internal/failure, so a chaos run is exactly
// reproducible from its seed.
//
// The injector's Call method matches serve.Backend's shape
// (func(ctx, station) error) without importing the serve package, so
// cmd/bladed can wire it in with a plain assignment and tests can
// drive it directly.
package faultinject

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/failure"
)

// ErrInjected is the error a faulted backend call returns.
var ErrInjected = errors.New("faultinject: injected backend error")

// Fault is one station's live fault state. The zero value is healthy.
type Fault struct {
	// ErrorRate is the probability in [0, 1] that a call fails with
	// ErrInjected after its service delay.
	ErrorRate float64 `json:"error_rate"`
	// ExtraLatency inflates every call's service time.
	ExtraLatency time.Duration `json:"extra_latency"`
	// Blackhole makes calls hang until their context expires — the
	// injected equivalent of a dead network path; the caller's attempt
	// timeout turns it into timeout outcomes.
	Blackhole bool `json:"blackhole"`
}

// Config describes an injector.
type Config struct {
	// Stations is the cluster size. Required (positive).
	Stations int
	// BaseDelay is the healthy per-call service time. Zero means
	// calls complete immediately.
	BaseDelay time.Duration
	// Seed seeds the per-station error-coin streams (0 means 1).
	Seed int64
	// Now injects a clock for schedule-driven faults and tests.
	// Default time.Now.
	Now func() time.Time
	// Schedules optionally drives faults from seeded failure traces:
	// station i's fault at elapsed time t is derived from
	// Schedules[i].FractionDownAt(t, Sizes[i]) — 1 blackholes the
	// station, intermediate fractions become error rates. Live
	// operator faults compose on top (the stronger signal wins).
	Schedules []failure.Schedule
	// Sizes holds the per-station blade counts the schedule fractions
	// are measured against; defaults to whole-station (1) when absent.
	Sizes []int
}

// Injector simulates a cluster backend with injectable faults. All
// mutable state is atomic: Set/Clear race freely with Call.
type Injector struct {
	base      time.Duration
	now       func() time.Time
	start     time.Time
	faults    []atomic.Pointer[Fault]
	rngs      []paddedRNG
	schedules []failure.Schedule
	sizes     []int
	calls     atomic.Int64
	injected  atomic.Int64
}

// paddedRNG is one station's SplitMix64 error-coin state, padded so
// concurrent calls on different stations never false-share.
type paddedRNG struct {
	state atomic.Uint64
	_     [120]byte
}

// splitmixGamma/splitmix64 mirror the serving RNG's SplitMix64 (Steele,
// Lea & Flood); duplicated locally to keep the package dependency-free.
const splitmixGamma = 0x9E3779B97F4A7C15

func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// New validates the configuration and builds an injector with every
// station healthy.
func New(cfg Config) (*Injector, error) {
	if cfg.Stations < 1 {
		return nil, fmt.Errorf("faultinject: %d stations, need at least 1", cfg.Stations)
	}
	if cfg.BaseDelay < 0 {
		return nil, fmt.Errorf("faultinject: negative base delay %v", cfg.BaseDelay)
	}
	if cfg.Schedules != nil && len(cfg.Schedules) != cfg.Stations {
		return nil, fmt.Errorf("faultinject: %d schedules for %d stations", len(cfg.Schedules), cfg.Stations)
	}
	if cfg.Sizes != nil && len(cfg.Sizes) != cfg.Stations {
		return nil, fmt.Errorf("faultinject: %d sizes for %d stations", len(cfg.Sizes), cfg.Stations)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	seed := uint64(cfg.Seed)
	if seed == 0 {
		seed = 1
	}
	in := &Injector{
		base:      cfg.BaseDelay,
		now:       cfg.Now,
		start:     cfg.Now(),
		faults:    make([]atomic.Pointer[Fault], cfg.Stations),
		rngs:      make([]paddedRNG, cfg.Stations),
		schedules: cfg.Schedules,
		sizes:     cfg.Sizes,
	}
	for i := range in.rngs {
		seed += splitmixGamma
		in.rngs[i].state.Store(splitmix64(seed))
	}
	return in, nil
}

// Set installs a station's live fault state, replacing any previous.
func (in *Injector) Set(station int, f Fault) error {
	if station < 0 || station >= len(in.faults) {
		return fmt.Errorf("faultinject: station %d out of range [0, %d)", station, len(in.faults))
	}
	if f.ErrorRate < 0 || f.ErrorRate > 1 {
		return fmt.Errorf("faultinject: error rate %g outside [0, 1]", f.ErrorRate)
	}
	if f.ExtraLatency < 0 {
		return fmt.Errorf("faultinject: negative extra latency %v", f.ExtraLatency)
	}
	in.faults[station].Store(&f)
	return nil
}

// Clear restores a station to health (schedule-driven faults, if any,
// still apply).
func (in *Injector) Clear(station int) error {
	if station < 0 || station >= len(in.faults) {
		return fmt.Errorf("faultinject: station %d out of range [0, %d)", station, len(in.faults))
	}
	in.faults[station].Store(nil)
	return nil
}

// Get returns the station's live operator-set fault (zero when clear).
func (in *Injector) Get(station int) Fault {
	if station < 0 || station >= len(in.faults) {
		return Fault{}
	}
	if p := in.faults[station].Load(); p != nil {
		return *p
	}
	return Fault{}
}

// Calls and Injected report totals for harness summaries.
func (in *Injector) Calls() int64    { return in.calls.Load() }
func (in *Injector) Injected() int64 { return in.injected.Load() }

// effective composes the operator fault with the schedule-driven one:
// a fully down schedule blackholes the station; a partial fraction
// contributes an error rate; the stronger of the two signals wins.
func (in *Injector) effective(station int) Fault {
	var f Fault
	if p := in.faults[station].Load(); p != nil {
		f = *p
	}
	if in.schedules != nil && in.schedules[station] != nil {
		elapsed := in.now().Sub(in.start).Seconds()
		m := 1
		if in.sizes != nil && in.sizes[station] > 0 {
			m = in.sizes[station]
		}
		frac := in.schedules[station].FractionDownAt(elapsed, m)
		if frac >= 1 {
			f.Blackhole = true
		} else if frac > f.ErrorRate {
			f.ErrorRate = frac
		}
	}
	return f
}

// u01 draws one uniform variate from the station's seeded stream.
func (in *Injector) u01(station int) float64 {
	z := splitmix64(in.rngs[station].state.Add(splitmixGamma))
	return float64(z>>11) / (1 << 53)
}

// Call simulates one backend request against a station: sleep the
// (possibly inflated) service time, then fail with ErrInjected at the
// effective error rate. Blackholed stations hang until the context
// expires. Matches serve.Backend.
func (in *Injector) Call(ctx context.Context, station int) error {
	if station < 0 || station >= len(in.faults) {
		return fmt.Errorf("faultinject: station %d out of range [0, %d)", station, len(in.faults))
	}
	in.calls.Add(1)
	f := in.effective(station)
	if f.Blackhole {
		in.injected.Add(1)
		<-ctx.Done()
		return ctx.Err()
	}
	if d := in.base + f.ExtraLatency; d > 0 {
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	if f.ErrorRate > 0 && in.u01(station) < f.ErrorRate {
		in.injected.Add(1)
		return ErrInjected
	}
	return nil
}

// faultRequest is the body of POST /v1/faults.
type faultRequest struct {
	Station        int     `json:"station"`
	ErrorRate      float64 `json:"error_rate"`
	ExtraLatencyMS float64 `json:"extra_latency_ms"`
	Blackhole      bool    `json:"blackhole"`
	// Reset clears the station's live fault instead of setting one.
	Reset bool `json:"reset"`
}

// faultView is one station's block in GET /v1/faults.
type faultView struct {
	Station        int     `json:"station"`
	ErrorRate      float64 `json:"error_rate"`
	ExtraLatencyMS float64 `json:"extra_latency_ms"`
	Blackhole      bool    `json:"blackhole"`
}

// AdminHandler returns the fault-injection test hook:
//
//	GET  /  → per-station effective fault state
//	POST /  → {"station": i, "error_rate": p, "extra_latency_ms": n,
//	           "blackhole": b} sets a fault; {"station": i, "reset":
//	           true} clears it
//
// Mount it on an operator-only route (bladed uses /v1/faults behind
// the -fault-admin flag): it is a chaos tool, not a public API.
func (in *Injector) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", func(w http.ResponseWriter, _ *http.Request) {
		views := make([]faultView, len(in.faults))
		for i := range in.faults {
			f := in.effective(i)
			views[i] = faultView{
				Station:        i,
				ErrorRate:      f.ErrorRate,
				ExtraLatencyMS: float64(f.ExtraLatency) / float64(time.Millisecond),
				Blackhole:      f.Blackhole,
			}
		}
		writeJSON(w, http.StatusOK, views)
	})
	mux.HandleFunc("POST /", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		var req faultRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if req.Reset {
			err = in.Clear(req.Station)
		} else if req.ExtraLatencyMS < 0 || req.ExtraLatencyMS*float64(time.Millisecond) >= math.MaxInt64 {
			// A latency a time.Duration cannot hold would convert to an
			// implementation-defined value; refuse it instead.
			err = fmt.Errorf("faultinject: extra_latency_ms %g outside [0, %.6g)",
				req.ExtraLatencyMS, math.MaxInt64/float64(time.Millisecond))
		} else {
			err = in.Set(req.Station, Fault{
				ErrorRate:    req.ErrorRate,
				ExtraLatency: time.Duration(req.ExtraLatencyMS * float64(time.Millisecond)),
				Blackhole:    req.Blackhole,
			})
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusAccepted, in.Get(req.Station))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
