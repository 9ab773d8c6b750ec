package repro

// Contention benchmarks for the serving hot path (DESIGN.md §11): the
// lock-free dispatch path, single-shot and batched, under parallel
// load. cmd/bladebench captures them in BENCH_<date>.json snapshots and
// CI gates them against the committed baseline, 0 allocs/op included.

import (
	"io"
	"log/slog"
	"runtime"
	"testing"
	"time"

	"repro/internal/model"
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
