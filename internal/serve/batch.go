package serve

import (
	"fmt"
	randv2 "math/rand/v2"
	"net/http"
	"time"

	"repro/internal/dispatch"
)

// batchChunk is the internal batch granularity: DecideBatch processes
// its dst in chunks of this size, which bounds every stack scratch
// array on the batched hot path and is the depth-staleness bound the
// JSQ(d) batch pick documents (its snapshot is per chunk; see DESIGN.md
// §16).
const batchChunk = dispatch.MaxPickBatch

// maxBatchRequest bounds one POST /v1/dispatch/batch request — large
// enough for any sane client batch, small enough that a single request
// cannot monopolize the daemon.
const maxBatchRequest = 4096

// DecideBatch runs the dispatch hot path for len(dst) requests at once,
// filling dst with one Decision per slot. It is semantically k = len(dst)
// Decide calls — every decision gets its own admission check, pick,
// breaker redirect and latency-gate draw — but the per-request overhead
// is paid per chunk instead: one clock read, one plan snapshot load,
// one estimator bump (a single fixed-point add of k per shard), one
// per-shard SplitMix64 word-stream reservation, one vectorized pick
// pass, and one aggregated counter/depth update per distinct chosen
// station. Zero heap allocations: all scratch is caller-provided (dst)
// or fixed stack arrays.
//
// Equivalence contracts, in decreasing strictness:
//
//   - Under Config.DeterministicRNG the routed station sequence is
//     IDENTICAL to len(dst) sequential Decide calls, draw for draw
//     (pinned by TestDecideBatchDeterministicSequence): the
//     deterministic generator forces the per-decision exact path, which
//     replays Decide's draw order precisely.
//   - On the lock-free fast path the picks are distributed identically
//     (same variate lattice, same cumulative walk) but come from batch
//     word streams; JSQ(d) picks score against a per-chunk depth
//     snapshot plus the batch's own picks, so depth staleness is
//     bounded by batchChunk.
//   - A posted breaker trial or an active admission shed also routes
//     through the per-decision exact path, so probabilistic guarantees
//     (trial fraction, admitted fraction) hold per decision, never
//     averaged across a batch.
//
//bladelint:hotpath
func (s *Server) DecideBatch(dst []Decision) {
	if len(dst) == 0 {
		return
	}
	for len(dst) > batchChunk {
		s.decideChunk(dst[:batchChunk])
		dst = dst[batchChunk:]
	}
	s.decideChunk(dst)
}

// decideChunk decides one chunk (≤ batchChunk requests): the shared
// per-chunk work runs once, then the chunk takes either the vectorized
// fast path or the per-decision exact path.
func (s *Server) decideChunk(dst []Decision) {
	k := len(dst)
	start := s.now()
	// One per-batch word: estimator shard, RNG shard and redirect
	// redraws consume its slices once per chunk (randbits.go).
	u0 := randv2.Uint64()
	// The amortized estimator bump: one epoch check and one fixed-point
	// add of k on a single shard, in place of k independent bumps.
	s.est.observeAtShard(start, float64(k), u0)
	plan := s.plan.Load()
	rate := s.est.RateAt(start)
	warm := s.est.WarmAt(start)
	admit, reason := s.admission(plan, rate, warm)
	s.driftCheck(plan, rate, warm)
	if s.fastRnd == nil || admit < 1 || s.breakers.trial.Load() >= 0 {
		// DeterministicRNG, admission shedding, or a posted breaker
		// trial: each decision must consume randomness exactly as Decide
		// does, so the chunk runs per decision (still sharing the chunk's
		// estimator bump and clock reads).
		s.decideChunkExact(dst, start, plan, rate, admit, reason)
		return
	}

	// Fast path: one per-decision word per slot from a single shard's
	// SplitMix64 stream (one atomic add reserves the whole span).
	var ws [batchChunk]uint64
	s.fastRnd.fillU(u0>>randPickShardShift, ws[:k])
	var picks [batchChunk]int32
	if plan.jsq != nil {
		var sb [batchChunk]uint64
		if s.jsqD <= 2 {
			for j := 0; j < k; j++ {
				sb[j] = ws[j] >> randSampleShift
			}
		} else {
			// d > 2 needs more sample bits than w_j has clear of the
			// gate slice: a second stream word per decision, consumed
			// whole — the batch analogue of jsqBits' dedicated word.
			s.fastRnd.fillU(u0>>randPickShardShift, sb[:k])
		}
		plan.jsq.PickBatch(sb[:k], picks[:k])
	} else {
		var us [batchChunk]float64
		for j := 0; j < k; j++ {
			us[j] = float64(ws[j]&(1<<randBatchPickBits-1)) / (1 << randBatchPickBits)
		}
		plan.picker.PickBatch(us[:k], picks[:k])
	}

	gates := 0
	for j := 0; j < k; j++ {
		st := int(picks[j])
		if s.breakers.rejects(st) {
			st = s.redirect(plan, st, u0)
		}
		dst[j] = Decision{Station: st, Plan: plan, Rate: rate}
		// Each decision keeps its own 1-in-p2SampleStride gate draw from
		// its own word, so the sampled fraction stays exact across the
		// batch; the hits share one end-of-chunk clock read below.
		if ws[j]>>randLatGateShift&(p2SampleStride-1) == 0 {
			gates++
		}
	}

	// Aggregated bookkeeping: one total add, then one add per DISTINCT
	// chosen station for the per-station counter and (router-mode JSQ)
	// the depth counter — a chunk touching s stations costs O(s) atomic
	// adds, not O(k).
	s.m.countDispatchN(int64(k))
	var stA [batchChunk]int32
	var ctA [batchChunk]int32
	na := 0
	for j := 0; j < k; j++ {
		st := int32(dst[j].Station)
		i := 0
		for ; i < na; i++ {
			if stA[i] == st {
				ctA[i]++
				break
			}
		}
		if i == na {
			stA[na] = st
			ctA[na] = 1
			na++
		}
	}
	router := s.depths != nil && s.backend == nil
	for i := 0; i < na; i++ {
		s.m.countStationN(int(stA[i]), int64(ctA[i]))
		if router {
			s.depths.incN(int(stA[i]), int64(ctA[i]))
		}
	}
	if gates > 0 {
		s.m.observeLatencyN(s.now().Sub(start).Seconds(), gates, randv2.Uint64())
	}
}

// decideChunkExact is the per-decision chunk flow: every slot draws its
// own word and admission coin, then runs the same route as Decide, so
// each decision consumes randomness exactly as Decide does (same draw
// order, same sources) and DeterministicRNG sequence pinning,
// per-decision admission coins and trial coins all hold. Only the
// chunk's shared work differs from k plain Decide calls: the estimator
// bump already happened in decideChunk, and the latency-gated decisions
// share one end-of-chunk clock read.
func (s *Server) decideChunkExact(dst []Decision, start time.Time, plan *Plan, rate, admit float64, reason rejectReason) {
	gates := 0
	for j := range dst {
		u := randv2.Uint64()
		if admit < 1 && s.rnd.Float64() >= admit {
			s.m.reject(reason)
			dst[j] = Decision{Station: -1, Plan: plan, Rate: rate,
				Rejected: true, Reason: rejectReasonNames[reason]}
			continue
		}
		dst[j] = s.route(plan, rate, u)
		if u>>randLatGateShift&(p2SampleStride-1) == 0 {
			gates++
		}
	}
	if gates > 0 {
		s.m.observeLatencyN(s.now().Sub(start).Seconds(), gates, randv2.Uint64())
	}
}

// BatchDispatchResponse is the body of a successful
// POST /v1/dispatch/batch: count decisions from one pass through the
// batched hot path.
type BatchDispatchResponse struct {
	// PlanVersion identifies the plan that made the decisions.
	PlanVersion int64 `json:"plan_version"`
	// Stations holds the routed station per admitted decision, in
	// decision order (rejected decisions are omitted).
	Stations []int `json:"stations"`
	// Rejected counts decisions shed by admission control.
	Rejected int `json:"rejected,omitempty"`
}

// handleDispatchBatch serves POST /v1/dispatch/batch
// {"count": N}: N routing decisions from one DecideBatch pass. It is a
// router-mode endpoint — batch clients execute the work themselves and
// report outcomes through /v1/observe.
func (s *Server) handleDispatchBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Count int `json:"count"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Count < 1 || req.Count > maxBatchRequest {
		writeError(w, http.StatusBadRequest,
			"count %d outside [1, %d]", req.Count, maxBatchRequest)
		return
	}
	dst := make([]Decision, req.Count)
	s.DecideBatch(dst)
	resp := BatchDispatchResponse{
		PlanVersion: dst[0].Plan.Version,
		Stations:    make([]int, 0, req.Count),
	}
	for i := range dst {
		if dst[i].Rejected {
			resp.Rejected++
			continue
		}
		resp.Stations = append(resp.Stations, dst[i].Station)
	}
	if len(resp.Stations) == 0 {
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds(dst[0])))
		writeError(w, http.StatusServiceUnavailable,
			"overloaded: all %d decisions shed", req.Count)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
