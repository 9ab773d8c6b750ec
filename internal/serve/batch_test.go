package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"
)

// decideRounds drives one server through a fixed schedule of decision
// rounds, either sequentially (one Decide per decision) or batched (one
// DecideBatch per round), and returns the routed station sequence, with
// -1 for a decision admission control rejected. Outcome reports land
// at round boundaries in BOTH modes, so the JSQ depth state evolves
// identically and any divergence is the batch path's fault, not the
// schedule's.
func decideRounds(t *testing.T, s *Server, rounds []int, batched bool) []int {
	t.Helper()
	var seq []int
	for _, k := range rounds {
		round := make([]Decision, k)
		if batched {
			s.DecideBatch(round)
		} else {
			for i := range round {
				round[i] = s.Decide()
			}
		}
		for i, d := range round {
			seq = append(seq, d.Station)
			if i%3 == 0 && !d.Rejected {
				s.ReportOutcome(d.Station, OutcomeSuccess, time.Millisecond)
			}
		}
	}
	return seq
}

// TestDecideBatchDeterministicSequence pins the tentpole equivalence
// contract: under Config.DeterministicRNG, DecideBatch routes the
// IDENTICAL station sequence as the same number of sequential Decide
// calls, draw for draw, across static, sparse-picker and JSQ(2)
// configurations and across uneven chunk schedules (crossing the
// internal batchChunk boundary). The trial and shed configurations
// route every chunk through the per-decision exact path: a half-open
// station draws a trial coin per decision, and a plan solved beyond
// saturation draws an admission coin per decision.
func TestDecideBatchDeterministicSequence(t *testing.T) {
	rounds := []int{5, 1, 17, batchChunk, 2*batchChunk + 9, 3}
	// halfOpen parks the health scan so the posted trial station stays
	// half-open for the whole schedule.
	halfOpen := func(c *Config) {
		c.Breaker.ScanInterval = time.Hour
		c.Breaker.TrialFraction = 0.2
	}
	configs := map[string]struct {
		mutate      func(*Config)
		trial, shed bool
	}{
		"static":       {},
		"jsq2":         {mutate: func(c *Config) { c.Policy = PolicyJSQ }},
		"trial-static": {mutate: halfOpen, trial: true},
		"trial-jsq2": {mutate: func(c *Config) {
			halfOpen(c)
			c.Policy = PolicyJSQ
		}, trial: true},
		"shed": {mutate: func(c *Config) { c.Lambda = 1.3 * c.Group.MaxGenericRate() }, shed: true},
	}
	for name, tc := range configs {
		t.Run(name, func(t *testing.T) {
			build := func() *Server {
				s := newTestServer(t, func(c *Config) {
					c.Seed = 42
					c.DeterministicRNG = true
					c.Window = time.Hour // cold estimator: no rate-driven admission draws
					if tc.mutate != nil {
						tc.mutate(c)
					}
				})
				if tc.trial {
					s.breakers.setState(&s.breakers.stations[2], breakerHalfOpen)
					s.breakers.snapshotTrial()
				}
				return s
			}
			seqSrv, batchSrv := build(), build()
			seqRun := decideRounds(t, seqSrv, rounds, false)
			batchRun := decideRounds(t, batchSrv, rounds, true)
			for i := range seqRun {
				if seqRun[i] != batchRun[i] {
					t.Fatalf("decision %d: sequential routed %d, batched routed %d",
						i, seqRun[i], batchRun[i])
				}
			}
			distinct := map[int]bool{}
			rejected := 0
			for _, st := range seqRun {
				distinct[st] = true
				if st < 0 {
					rejected++
				}
			}
			if len(distinct) < 2 {
				t.Fatalf("degenerate sequence: only stations %v picked", distinct)
			}
			if (rejected > 0) != tc.shed {
				t.Fatalf("%d of %d decisions rejected (shed config: %v)", rejected, len(seqRun), tc.shed)
			}
			seqTrials, batchTrials := seqSrv.breakers.trials.Load(), batchSrv.breakers.trials.Load()
			if seqTrials != batchTrials || (seqTrials > 0) != tc.trial {
				t.Fatalf("trial probes: sequential %d, batched %d (trial config: %v)", seqTrials, batchTrials, tc.trial)
			}
			t.Logf("%d decisions: %d trials, %d rejected", len(seqRun), seqTrials, rejected)
		})
	}
}

// TestDecideBatchDeterministicSequenceSparse is the same pin on a
// fleet-scale sparse-picker plan (the PickBatchSparse path): 256
// stations at light load — the configuration
// TestBuildPlanSparsePickerMatchesDense shows trips buildPlan's
// compact-table gate.
func TestDecideBatchDeterministicSequenceSparse(t *testing.T) {
	g := fleetGroup(256)
	for i := range g.Servers {
		g.Servers[i].Speed = 0.2 + 0.05*float64(i%32)
		g.Servers[i].SpecialRate = 0.2 * g.Servers[i].Capacity(g.TaskSize)
	}
	build := func() *Server {
		s, err := New(Config{
			Group:            g,
			Lambda:           0.05 * g.MaxGenericRate(),
			Logger:           quietLogger(),
			Seed:             7,
			DeterministicRNG: true,
			Window:           time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	rounds := []int{batchChunk + 3, 9, 40}
	seqRun := decideRounds(t, build(), rounds, false)
	batchRun := decideRounds(t, build(), rounds, true)
	for i := range seqRun {
		if seqRun[i] != batchRun[i] {
			t.Fatalf("decision %d: sequential routed %d, batched routed %d",
				i, seqRun[i], batchRun[i])
		}
	}
}

// TestDecideBatchFastPathDistribution checks the vectorized fast path
// (sharded RNG, batch word streams, PickBatch) against the plan's own
// split: over many batched decisions each loaded station's empirical
// share must track its planned share. This is the guard against a
// variate-scaling bug in the batch word layout — e.g. consuming bits
// that overlap the latency gate would skew the top of the cumulative
// table.
func TestDecideBatchFastPathDistribution(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Window = time.Hour })
	plan := s.Plan()
	var total float64
	for _, r := range plan.Rates {
		total += r
	}
	const picks = 200_000
	counts := make(map[int]int)
	var dst [3*batchChunk + 11]Decision
	routed := 0
	for routed < picks {
		k := len(dst)
		if picks-routed < k {
			k = picks - routed
		}
		s.DecideBatch(dst[:k])
		for _, d := range dst[:k] {
			if d.Rejected {
				t.Fatalf("unexpected rejection: %s", d.Reason)
			}
			counts[d.Station]++
		}
		routed += k
	}
	for i, r := range plan.Rates {
		want := r / total
		got := float64(counts[i]) / picks
		if math.Abs(got-want) > 0.01 {
			t.Errorf("station %d: empirical share %.4f, planned %.4f", i, got, want)
		}
	}
}

// TestDecideBatchEmptyAndChunking covers the degenerate sizes: an empty
// dst is a no-op, and a dst far beyond batchChunk is fully decided.
func TestDecideBatchEmptyAndChunking(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Window = time.Hour })
	s.DecideBatch(nil)
	dst := make([]Decision, 5*batchChunk+1)
	s.DecideBatch(dst)
	for i, d := range dst {
		if d.Plan == nil || d.Rejected || d.Station < 0 || d.Station >= s.group.N() {
			t.Fatalf("slot %d undecided or invalid: %+v", i, d)
		}
	}
}

// TestDecideBatchChurnStress churns DecideBatch from many goroutines
// under -race while operator health flips force breaker resets,
// redirects and plan re-solves mid-batch. Every routed decision is
// reported, so when the dust settles the JSQ depth counters must read
// exactly zero — aggregated incN bumps and per-report decrements must
// balance through every overlap with a flip.
func TestDecideBatchChurnStress(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Policy = PolicyJSQ
		c.Window = time.Hour
	})
	h := s.Handler()
	const workers, perWorker = 8, 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Flip station 0 down and back up while batches are in flight:
		// down pins it (breaker rejects → batch redirects), up force-
		// resets the breaker.
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			flip = !flip
			postJSON(t, h, "/v1/health", map[string]any{"station": 0, "up": !flip})
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst [batchChunk + 5]Decision
			for i := 0; i < perWorker; i++ {
				k := 1 + (w*perWorker+i)%len(dst)
				s.DecideBatch(dst[:k])
				for _, d := range dst[:k] {
					if d.Rejected {
						continue
					}
					if d.Station < 0 || d.Station >= s.group.N() {
						t.Errorf("invalid station %d", d.Station)
						return
					}
					s.ReportOutcome(d.Station, OutcomeSuccess, time.Millisecond)
				}
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	// Re-admit station 0 so the final state is clean.
	postJSON(t, h, "/v1/health", map[string]any{"station": 0, "up": true})
	for i := 0; i < s.group.N(); i++ {
		if depth := s.depths.Depth(i); depth != 0 {
			t.Errorf("station %d depth %d after all outcomes reported, want 0", i, depth)
		}
	}
}

// TestObserveNFractionalExactness pins the estimator's fixed-point
// batch-observation contract (the ObserveN the batched path relies on):
// fractional counts accumulate exactly and round once at read, and a
// DecideBatch of k bumps the lifetime count by exactly k.
func TestObserveNFractionalExactness(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	e := NewRateEstimator(time.Second, 10, clock)
	for i := 0; i < 8; i++ {
		e.Observe(0.25)
	}
	if got := e.Observed(); got != 2 {
		t.Errorf("8 × Observe(0.25): Observed() = %d, want 2", got)
	}
	e2 := NewRateEstimator(time.Second, 10, clock)
	for i := 0; i < 10; i++ {
		e2.Observe(0.3)
	}
	if got := e2.Observed(); got != 3 {
		t.Errorf("10 × Observe(0.3): Observed() = %d, want 3 (not truncated per call)", got)
	}

	s := newTestServer(t, func(c *Config) { c.Window = time.Hour })
	before := s.est.Observed()
	dst := make([]Decision, 10)
	s.DecideBatch(dst)
	if got := s.est.Observed() - before; got != 10 {
		t.Errorf("DecideBatch(10) bumped Observed by %d, want 10", got)
	}
}

// TestDispatchBatchEndpoint covers POST /v1/dispatch/batch: a valid
// count returns that many decisions against one plan version, and
// out-of-range counts are rejected with 400.
func TestDispatchBatchEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	w := postJSON(t, h, "/v1/dispatch/batch", map[string]int{"count": 32})
	if w.Code != http.StatusOK {
		t.Fatalf("batch dispatch: %d %s", w.Code, w.Body)
	}
	var resp BatchDispatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Stations)+resp.Rejected != 32 {
		t.Fatalf("%d stations + %d rejected != 32", len(resp.Stations), resp.Rejected)
	}
	if resp.PlanVersion != s.Plan().Version {
		t.Errorf("plan version %d, want %d", resp.PlanVersion, s.Plan().Version)
	}
	for _, st := range resp.Stations {
		if st < 0 || st >= s.group.N() {
			t.Errorf("station %d out of range", st)
		}
	}
	for _, bad := range []int{0, -3, maxBatchRequest + 1} {
		if w := postJSON(t, h, "/v1/dispatch/batch", map[string]int{"count": bad}); w.Code != http.StatusBadRequest {
			t.Errorf("count %d: got %d, want 400", bad, w.Code)
		}
	}
}

// TestFillUMatchesSequentialDraws pins the batch word stream against
// the single-draw stream: fillU(u, dst) must hand out exactly the
// words k successive uint64U(u) calls would, so batch and single-shot
// decisions draw from one lattice (and the disjoint-reservation
// argument in fillU's doc holds by construction).
func TestFillUMatchesSequentialDraws(t *testing.T) {
	a, b := newShardedRNG(99), newShardedRNG(99)
	const k = 24
	var batch [k]uint64
	a.fillU(5, batch[:])
	for i := 0; i < k; i++ {
		if single := b.uint64U(5); single != batch[i] {
			t.Fatalf("word %d: batch %#x, sequential %#x", i, batch[i], single)
		}
	}
	// A second batch continues the same stream, not a restarted one.
	var batch2 [4]uint64
	a.fillU(5, batch2[:])
	for i := range batch2 {
		if single := b.uint64U(5); single != batch2[i] {
			t.Fatalf("second batch word %d: batch %#x, sequential %#x", i, batch2[i], single)
		}
	}
}
