package repro

// Contention benchmarks for the serving hot path (DESIGN.md §11): the
// lock-free dispatch path, single-shot and batched, under parallel
// load. cmd/bladebench captures them in BENCH_<date>.json snapshots and
// CI gates them against the committed baseline, 0 allocs/op included.
// The BenchmarkHandler* series times the HTTP layer around it.

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/serve"
)

// benchDispatchParallel drives serve.Server.Decide from GOMAXPROCS
// goroutines. GOMAXPROCS is forced to 8 for the measurement so the
// sharded path exercises real cross-core (or oversubscribed)
// contention regardless of the host's core count; the server is
// constructed after the bump so its shard counts size to it.
// The estimation window is far longer than any run, keeping the
// estimator cold: no admission shedding, every iteration takes the
// full observe → rate-merge → pick → record path.
func benchDispatchParallel(b *testing.B, policy serve.Policy) {
	b.Helper()
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	g := model.LiExample1Group()
	s, err := serve.New(serve.Config{
		Group:  g,
		Lambda: 0.5 * g.MaxGenericRate(),
		Window: time.Hour,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Policy: policy,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			d := s.Decide()
			if d.Rejected || d.Station < 0 {
				b.Errorf("unexpected decision %+v", d)
				return
			}
		}
	})
}

func BenchmarkDispatchParallel(b *testing.B) {
	benchDispatchParallel(b, serve.PolicyStatic)
}

// BenchmarkDispatchParallelJSQ2 pins the sampled state-aware policy to
// the same contention harness: two depth loads plus a depth increment
// per decision on top of the static path. CI gates it at 0 allocs/op
// and within 1.25× of the static pick.
func BenchmarkDispatchParallelJSQ2(b *testing.B) {
	benchDispatchParallel(b, serve.PolicyJSQ)
}

// benchDispatchBatch drives serve.Server.DecideBatch with k decisions
// per call from GOMAXPROCS goroutines, reporting ns PER DECISION (one
// benchmark iteration = one decision, k iterations per DecideBatch) so
// the numbers read directly against benchDispatchParallel. The
// amortization claim in DESIGN.md §16 — one estimator bump, one plan
// load, one RNG reservation per batch — is gated in CI: per-decision
// time at k=8 must beat the single-shot path by ≥1.5× with 0 allocs/op.
func benchDispatchBatch(b *testing.B, k int, policy serve.Policy) {
	b.Helper()
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	g := model.LiExample1Group()
	s, err := serve.New(serve.Config{
		Group:  g,
		Lambda: 0.5 * g.MaxGenericRate(),
		Window: time.Hour,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Policy: policy,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var dst [16]serve.Decision
		for pb.Next() {
			// Claim k iterations per batch: the first Next() above plus
			// k-1 more, so b.N counts decisions, not batches.
			n := 1
			for n < k && pb.Next() {
				n++
			}
			s.DecideBatch(dst[:n])
			for i := range dst[:n] {
				if dst[i].Rejected || dst[i].Station < 0 {
					b.Errorf("unexpected decision %+v", dst[i])
					return
				}
			}
		}
	})
}

func BenchmarkDispatchBatch1(b *testing.B)  { benchDispatchBatch(b, 1, serve.PolicyStatic) }
func BenchmarkDispatchBatch4(b *testing.B)  { benchDispatchBatch(b, 4, serve.PolicyStatic) }
func BenchmarkDispatchBatch8(b *testing.B)  { benchDispatchBatch(b, 8, serve.PolicyStatic) }
func BenchmarkDispatchBatch16(b *testing.B) { benchDispatchBatch(b, 16, serve.PolicyStatic) }

// BenchmarkDispatchBatchJSQ2 batches the sampled state-aware policy:
// candidate depths snapshot once per batch (staleness bounded by the
// batch length) and the chosen stations' depth increments land as one
// add per distinct station.
func BenchmarkDispatchBatchJSQ2(b *testing.B) { benchDispatchBatch(b, 8, serve.PolicyJSQ) }

// --- The HTTP layer: one request through the full serve.Server.Handler
// stack (mux, in-flight bound, handler, JSON framing) per op, on an
// in-memory request and a reusable writer that discards the body, so
// B/op and allocs/op are the daemon's own. ---

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header  { return w.header }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

// benchHandler serves method path with body (re-read every op) through
// h and requires status want. One untimed request goes first, so that
// pooled response buffers are grown and a short run such as CI's
// -benchtime 3x times the same steady state as a long one.
func benchHandler(b *testing.B, h http.Handler, method, path, body string, want int) {
	b.Helper()
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest(method, path, nil)
	req.Body = io.NopCloser(rd)
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		rd.Reset([]byte(body))
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != want {
			b.Fatalf("%s %s: status %d, want %d", method, path, w.code, want)
		}
	}
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// BenchmarkHandlerDispatch is POST /v1/dispatch on the paper's Example 1
// in router mode: Decide plus the HTTP framing around it.
func BenchmarkHandlerDispatch(b *testing.B) {
	g := model.LiExample1Group()
	s, err := serve.New(serve.Config{
		Group:  g,
		Lambda: 0.5 * g.MaxGenericRate(),
		Window: time.Hour,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	benchHandler(b, s.Handler(), http.MethodPost, "/v1/dispatch", "", http.StatusOK)
}

// newFleetServer serves the 10,000-station signatureFleet at half
// saturation.
func newFleetServer(b *testing.B, breaker serve.BreakerConfig) (*serve.Server, float64) {
	b.Helper()
	g := signatureFleet(b, 10000)
	lambda := 0.5 * g.MaxGenericRate()
	s, err := serve.New(serve.Config{
		Group:   g,
		Lambda:  lambda,
		Opts:    core.Options{Discipline: queueing.FCFS},
		Breaker: breaker,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	return s, lambda
}

// BenchmarkHandlerPostPlanN10k is an operator re-plan at fleet scale:
// POST /v1/plan re-solves the fleet warm at its planned λ′ and answers
// with the full plan.
func BenchmarkHandlerPostPlanN10k(b *testing.B) {
	s, lambda := newFleetServer(b, serve.BreakerConfig{})
	defer s.Close()
	benchHandler(b, s.Handler(), http.MethodPost, "/v1/plan", fmt.Sprintf(`{"lambda": %v}`, lambda), http.StatusOK)
}

// BenchmarkHandlerGetPlanN10k is GET /v1/plan on the fleet: the plan
// body's encoding alone, with no solve.
func BenchmarkHandlerGetPlanN10k(b *testing.B) {
	s, _ := newFleetServer(b, serve.BreakerConfig{})
	defer s.Close()
	benchHandler(b, s.Handler(), http.MethodGet, "/v1/plan", "", http.StatusOK)
}

// BenchmarkHandlerGetHealthN10k is the fleet's health view, GET
// /v1/health: every station's block, on a fleet whose detectors have
// seen no traffic.
func BenchmarkHandlerGetHealthN10k(b *testing.B) {
	s, _ := newFleetServer(b, serve.BreakerConfig{})
	defer s.Close()
	benchHandler(b, s.Handler(), http.MethodGet, "/v1/health", "", http.StatusOK)
}

// BenchmarkHandlerPostHealthN10k is an operator health post on the
// fleet, answered with the posted station's block alone. It brings up
// a station already up, which changes nothing and queues no re-solve.
func BenchmarkHandlerPostHealthN10k(b *testing.B) {
	s, _ := newFleetServer(b, serve.BreakerConfig{})
	defer s.Close()
	benchHandler(b, s.Handler(), http.MethodPost, "/v1/health", `{"station":0,"up":true}`, http.StatusAccepted)
}

// BenchmarkHandlerGetHealthLiveN10k is GET /v1/health on a fleet whose
// failure detectors have seen traffic. Station i has reported 14
// outcomes that spell i in binary, an error per set bit, so every
// station carries its own error rate and suspicion: the body's 20,000
// readings all differ, where the idle fleet of
// BenchmarkHandlerGetHealthN10k reads zero throughout.
// Breakers are off, so the readings trip nothing.
func BenchmarkHandlerGetHealthLiveN10k(b *testing.B) {
	s, _ := newFleetServer(b, serve.BreakerConfig{Disabled: true})
	defer s.Close()
	for i := 0; i < 10000; i++ {
		for k := 0; k < 14; k++ {
			kind := serve.OutcomeSuccess
			if i>>k&1 == 1 {
				kind = serve.OutcomeError
			}
			if err := s.ReportOutcome(i, kind, time.Duration(k+1)*time.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
	}
	benchHandler(b, s.Handler(), http.MethodGet, "/v1/health", "", http.StatusOK)
}
