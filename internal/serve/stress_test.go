package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRateEstimatorConcurrentStress hammers the sharded estimator with
// concurrent writers and readers (run under -race in CI). The window is
// longer than the test so no bucket rotates: every observation must
// survive into both Observed and Rate.
func TestRateEstimatorConcurrentStress(t *testing.T) {
	const writers, perWriter = 8, 5000
	e := NewRateEstimator(time.Hour, 10, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					e.Rate()
					e.Warm()
					e.Observed()
				}
			}
		}()
	}
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				e.Observe(1)
			}
		}()
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()
	if got := e.Observed(); got != writers*perWriter {
		t.Fatalf("observed = %d, want %d (lost concurrent observations)", got, writers*perWriter)
	}
	// Bypass the quantum cache (a concurrent reader may have cached a
	// merge from before the writers produced anything) and check the
	// full hour-long window kept every observation.
	if r := e.rateAt(time.Now()); r <= 0 {
		t.Fatalf("uncached rate = %g after %d observations", r, writers*perWriter)
	}
}

// TestShardedMetricsConcurrentStress runs concurrent dispatch
// observations, rejections, and scrapes (run under -race in CI), then
// checks no count was lost.
func TestShardedMetricsConcurrentStress(t *testing.T) {
	const writers, perWriter, stations = 8, 4000, 3
	m := newServerMetrics(stations)
	plan := &Plan{Version: 1, Utilizations: make([]float64, stations)}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
				buf.Reset()
				m.writeTo(&buf, plan, 1.0, true)
			}
		}
	}()
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				m.countDispatch((w + i) % stations)
				m.observeLatency(float64(i%100)/1e4, randv2.Uint64())
				if i%16 == 0 {
					m.reject(rejectAdmission)
				}
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()

	var buf bytes.Buffer
	m.writeTo(&buf, plan, 1.0, true)
	out := buf.String()
	mustContain := []string{
		fmt.Sprintf("bladed_dispatch_total %d", writers*perWriter),
		fmt.Sprintf(`bladed_rejected_total{reason="admission"} %d`, writers*(perWriter/16)),
		fmt.Sprintf("bladed_request_duration_seconds_count %d", writers*perWriter),
	}
	for _, want := range mustContain {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	var perStation int64
	for i := 0; i < stations; i++ {
		perStation += m.byStation[i].Load()
	}
	if perStation != writers*perWriter {
		t.Fatalf("per-station counts sum to %d, want %d", perStation, writers*perWriter)
	}
}

// TestDispatchDecideConcurrentStress drives the full lock-free Decide
// path from many goroutines (run under -race in CI) and checks the
// dispatch counter kept up.
func TestDispatchDecideConcurrentStress(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Window = time.Hour // keep the estimator cold: no shedding
	})
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d := s.Decide()
				if d.Rejected {
					t.Errorf("unexpected rejection: %s", d.Reason)
					return
				}
				if d.Station < 0 || d.Station >= s.group.N() {
					t.Errorf("station %d out of range", d.Station)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.est.Observed(); got != workers*perWorker {
		t.Fatalf("estimator observed %d, want %d", got, workers*perWorker)
	}
	if got := s.m.dispatchTotal.Load(); got != workers*perWorker {
		t.Fatalf("dispatch total %d, want %d", got, workers*perWorker)
	}
}

// TestDeterministicRNGReproducesDispatchSequence pins the
// Config.DeterministicRNG contract: with a fixed seed the routing
// sequence is exactly what the original single-RNG server produced —
// plan.Pick drawing from one math/rand generator.
func TestDeterministicRNGReproducesDispatchSequence(t *testing.T) {
	t.Run("deterministic-rng", func(t *testing.T) {
		const seed, draws = 42, 500
		s := newTestServer(t, func(c *Config) {
			c.Seed = seed
			c.DeterministicRNG = true
		})
		// The reference sequence: the pre-sharding hot path consumed
		// exactly one rng.Float64 per admitted dispatch, inside
		// plan.Pick. With a cold estimator and no planned shedding no
		// admission draw is consumed, so the streams align.
		ref := rand.New(rand.NewSource(seed))
		plan := s.Plan()
		for i := 0; i < draws; i++ {
			want := plan.Pick(ref)
			d := s.Decide()
			if d.Rejected {
				t.Fatalf("draw %d: unexpected rejection %s", i, d.Reason)
			}
			if d.Station != want {
				t.Fatalf("draw %d: station %d, want %d (sequence diverged)", i, d.Station, want)
			}
		}
	})
}
