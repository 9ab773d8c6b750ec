// Command bladed is the online serving daemon: it loads a cluster
// specification, solves the paper's optimal load distribution once,
// and serves routing decisions from the resulting probabilistic plan
// over HTTP, re-optimizing in the background when the observed arrival
// rate drifts or a station is marked down.
//
// Usage:
//
//	bladed -example -frac 0.5                       # paper's system, λ′ at half saturation
//	bladed -spec cluster.json -rate 23.52           # explicit spec and rate
//	bladed -builtin fig12:1 -addr :9090 -drift 0.1  # built-in group, custom drift gate
//
// Endpoints: POST /v1/dispatch, POST /v1/dispatch/batch, GET|POST
// /v1/plan, GET|POST /v1/health, POST /v1/observe, GET /metrics
// (Prometheus text), GET /healthz, /debug/pprof, and — with
// -fault-admin — GET|POST /v1/faults. SIGINT/SIGTERM drain gracefully.
// In router mode -batch N additionally coalesces concurrent single-shot
// dispatches into shared batched hot-path passes (see -batch-linger).
//
// Chaos mode: -backend-delay simulates executing each dispatched
// request against its station (enabling the guarded dispatch wrapper,
// circuit breakers and outcome tracking), -fault-admin mounts the
// fault-injection hook, and -chaos-mtbf/-chaos-mttr/-chaos-seed drive
// stations up and down from a deterministic seeded failure schedule:
//
//	bladed -example -backend-delay 2ms -fault-admin
//	bladed -example -backend-delay 2ms -chaos-mtbf 30s -chaos-mttr 10s -chaos-seed 7
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/spec"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "bladed:", err)
		os.Exit(1)
	}
}

// run parses args and serves until a signal arrives. A non-nil ready
// channel receives the bound address once the listener is up (used by
// the end-to-end test).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("bladed", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	specPath := fs.String("spec", "", "path to JSON cluster specification")
	example := fs.Bool("example", false, "use the paper's Example 1/2 system")
	builtin := fs.String("builtin", "", "use a built-in system by name")
	rate := fs.Float64("rate", 0, "planned total generic arrival rate λ′ (absolute)")
	frac := fs.Float64("frac", 0.5, "λ′ as a fraction of the saturation point (used when -rate is 0)")
	priority := fs.Bool("priority", false, "give special tasks non-preemptive priority (paper §4)")
	sparse := fs.Bool("sparse", false,
		"solve with class clustering and marginal-cost pruning (bit-identical rates; intended for fleet-scale specs)")
	drift := fs.Float64("drift", 0.2, "relative arrival-rate drift that triggers a re-solve")
	window := fs.Duration("window", 30*time.Second, "arrival-rate estimation window")
	minResolve := fs.Duration("min-resolve", time.Second, "minimum interval between drift re-solves")
	maxInFlight := fs.Int("max-inflight", 256, "bound on concurrently served API requests")
	reqTimeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	drainTimeout := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	policy := fs.String("policy", "static",
		"dispatch policy: static (paper-optimal probabilistic split), jsq2 (power-of-two sampled least-depth), jsqd (power-of-d; see -d)")
	sampleD := fs.Int("d", 2, "stations sampled per request by -policy jsqd (2-4)")
	seed := fs.Int64("seed", 0, "dispatch RNG seed (0 means 1)")
	deterministic := fs.Bool("deterministic-rng", false,
		"serialize dispatch draws through one seeded RNG so -seed reproduces the routing sequence")
	backendDelay := fs.Duration("backend-delay", 0,
		"simulate executing each request with this per-call service time; enables the guarded dispatch wrapper")
	faultAdmin := fs.Bool("fault-admin", false,
		"mount the GET|POST /v1/faults fault-injection hook (implies a simulated backend)")
	chaosMTBF := fs.Duration("chaos-mtbf", 0, "mean time between injected station failures (0 disables the chaos schedule)")
	chaosMTTR := fs.Duration("chaos-mttr", 0, "mean time to repair for injected failures")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed of the deterministic chaos schedule")
	chaosHorizon := fs.Duration("chaos-horizon", time.Hour, "length of the generated chaos schedule")
	attemptTimeout := fs.Duration("attempt-timeout", time.Second, "per-attempt backend timeout")
	maxAttempts := fs.Int("max-attempts", 3, "backend attempts per request (first try included)")
	retryBudget := fs.Float64("retry-budget", 0.1, "sustained retries-per-request ratio")
	hedge := fs.Bool("hedge", false, "hedge a second backend attempt after the observed p95 (idempotent workloads only)")
	batchMax := fs.Int("batch", 0,
		"coalesce concurrent dispatches into one batched hot-path pass of up to this many decisions (router mode only; 0 disables)")
	batchLinger := fs.Duration("batch-linger", 100*time.Microsecond,
		"how long a coalesced batch leader waits for peers before dispatching short")
	breakerOff := fs.Bool("breaker-off", false, "disable automatic circuit-breaker transitions")
	breakerErr := fs.Float64("breaker-error-threshold", 0.5, "EWMA error rate that trips a station's breaker")
	breakerOpen := fs.Duration("breaker-open", 5*time.Second, "initial open interval of a tripped breaker (doubles per reopen)")
	breakerScan := fs.Duration("breaker-scan", 250*time.Millisecond, "failure-detector scan interval")
	trialFraction := fs.Float64("trial-fraction", 0.05, "dispatch share probed at a half-open station")
	rampWindow := fs.Duration("ramp-window", 10*time.Second, "capped-weight ramp length after a breaker-driven recovery")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	cluster, names, err := loadCluster(*specPath, *example, *builtin, logger)
	if err != nil {
		return err
	}
	lambda := *rate
	if lambda == 0 { //bladelint:allow floateq -- flag default 0 means derive lambda from -frac, an exact value never computed
		if *frac <= 0 || *frac >= 1 {
			return fmt.Errorf("-frac %g must be in (0, 1)", *frac)
		}
		lambda = *frac * cluster.MaxGenericRate()
	}
	d := repro.FCFS
	if *priority {
		d = repro.PrioritySpecial
	}
	dispatchPolicy, jsqD, err := parsePolicy(*policy, *sampleD)
	if err != nil {
		return err
	}

	// A simulated backend turns bladed from a pure router into an
	// executing daemon: every dispatch runs a (faultable) call, so the
	// failure detector sees real outcomes.
	chaos := *chaosMTBF > 0 || *chaosMTTR > 0
	var inj *faultinject.Injector
	if *backendDelay > 0 || *faultAdmin || chaos {
		icfg := faultinject.Config{
			Stations:  cluster.N(),
			BaseDelay: *backendDelay,
			Seed:      *chaosSeed,
		}
		if chaos {
			if *chaosMTBF <= 0 || *chaosMTTR <= 0 {
				return fmt.Errorf("-chaos-mtbf and -chaos-mttr must both be positive (got %v, %v)", *chaosMTBF, *chaosMTTR)
			}
			params := make([]failure.Params, cluster.N())
			sizes := make([]int, cluster.N())
			for i := range params {
				params[i] = failure.Params{MTBF: chaosMTBF.Seconds(), MTTR: chaosMTTR.Seconds()}
				sizes[i] = cluster.Servers[i].Size
			}
			plan := &failure.Plan{Stations: params}
			schedules, err := plan.GenerateAll(sizes, chaosHorizon.Seconds(), *chaosSeed)
			if err != nil {
				return fmt.Errorf("generating chaos schedule: %w", err)
			}
			icfg.Schedules = schedules
			icfg.Sizes = sizes
			logger.Info("chaos schedule armed",
				"mtbf", *chaosMTBF, "mttr", *chaosMTTR, "seed", *chaosSeed, "horizon", *chaosHorizon)
		}
		var err error
		if inj, err = faultinject.New(icfg); err != nil {
			return err
		}
	}

	cfg := serve.Config{
		Group:              cluster,
		Lambda:             lambda,
		Opts:               core.Options{Discipline: d, Sparse: *sparse, Parallel: *sparse},
		Names:              names,
		DriftThreshold:     *drift,
		Window:             *window,
		MinResolveInterval: *minResolve,
		MaxInFlight:        *maxInFlight,
		RequestTimeout:     *reqTimeout,
		Logger:             logger,
		Seed:               *seed,
		DeterministicRNG:   *deterministic,
		Policy:             dispatchPolicy,
		SampleD:            jsqD,
		BatchMax:           *batchMax,
		BatchLinger:        *batchLinger,
		Guard: serve.GuardConfig{
			AttemptTimeout: *attemptTimeout,
			MaxAttempts:    *maxAttempts,
			RetryBudget:    *retryBudget,
			Hedge:          *hedge,
		},
		Breaker: serve.BreakerConfig{
			Disabled:       *breakerOff,
			ErrorThreshold: *breakerErr,
			OpenInterval:   *breakerOpen,
			ScanInterval:   *breakerScan,
			TrialFraction:  *trialFraction,
			RampWindow:     *rampWindow,
		},
	}
	if inj != nil {
		cfg.Backend = inj.Call
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	handler := srv.Handler()
	if inj != nil && *faultAdmin {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/v1/faults", inj.AdminHandler())
		mux.Handle("/v1/faults/", inj.AdminHandler())
		handler = mux
	}
	return serveHTTP(*addr, handler, *drainTimeout, logger, ready)
}

// parsePolicy maps the -policy/-d flags to a serve policy. "jsq2" is
// the named power-of-two-choices shorthand; "jsqd" takes the sample
// count from -d.
func parsePolicy(policy string, d int) (serve.Policy, int, error) {
	switch policy {
	case "static":
		return serve.PolicyStatic, 0, nil
	case "jsq2":
		return serve.PolicyJSQ, 2, nil
	case "jsqd":
		return serve.PolicyJSQ, d, nil
	default:
		return 0, 0, fmt.Errorf("unknown -policy %q (want static, jsq2 or jsqd)", policy)
	}
}

// serveHTTP runs the HTTP server until SIGINT/SIGTERM, then drains.
func serveHTTP(addr string, handler http.Handler, drain time.Duration, logger *slog.Logger, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	logger.Info("bladed listening", "addr", ln.Addr().String())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("draining", "deadline", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("bladed stopped cleanly")
	return nil
}

// loadCluster mirrors the other CLIs' spec loading, additionally
// returning station names for operator-facing dispatch responses.
func loadCluster(specPath string, example bool, builtin string, logger *slog.Logger) (*repro.Cluster, []string, error) {
	switch {
	case example:
		return repro.PaperExampleCluster(), nil, nil
	case builtin != "":
		g, err := spec.Builtin(builtin)
		return g, nil, err
	case specPath != "":
		f, err := os.Open(specPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		doc, err := spec.Parse(f)
		if err != nil {
			return nil, nil, fmt.Errorf("parsing %s: %w", specPath, err)
		}
		for _, warn := range doc.Warnings() {
			logger.Warn(warn)
		}
		g, err := doc.Build()
		if err != nil {
			return nil, nil, err
		}
		names := make([]string, len(doc.Servers))
		named := false
		for i, s := range doc.Servers {
			names[i] = s.Name
			named = named || s.Name != ""
		}
		if !named {
			names = nil
		}
		return g, names, nil
	default:
		return nil, nil, fmt.Errorf("need -spec FILE, -example, or -builtin NAME")
	}
}
