package dispatch

// Batched pick paths: the serving layer's DecideBatch amortizes its
// per-request overhead (plan load, random-word generation, estimator
// bump) over small decision batches, and these entry points amortize
// the pick itself. Each is pick-for-pick identical to the sequential
// loop it replaces — PickBatch(us, dst) routes exactly the stations k
// successive PickU(us[j]) calls would — so batching changes cost, never
// distribution. The batch variants consume caller-supplied variates and
// allocate nothing: all scratch is fixed-size stack arrays, which is
// what lets the serving layer keep its 0 allocs/op gate.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// MaxPickBatch is the batch size the fixed stack scratch arrays on the
// batched hot path are sized for — the serving layer's chunk size, and
// the overlay scope of PowerOfD's wide-candidate fallback (see
// PickBatch).
const MaxPickBatch = 64

// PickBatch routes len(dst) decisions from caller-supplied uniform
// variates: dst[j] receives the station PickU(us[j]) would return, for
// every j, in order. One call walks the cumulative table once per
// variate with a branch-free prefix-sum scan (small tables) or a binary
// search (large ones); the caller owns the randomness, so concurrent
// batches share nothing writable.
//
//bladelint:hotpath
func (p *Probabilistic) PickBatch(us []float64, dst []int32) {
	if p.idx != nil {
		p.PickBatchSparse(us, dst)
		return
	}
	pickBatchCumulative(p.cum, us, dst)
}

// PickBatchSparse is PickBatch over a sparse-built picker
// (NewProbabilisticSparse): positions found in the compact cumulative
// table are mapped through the station index after the scan, so the
// walk itself stays a dense pass over the loaded stations only.
//
//bladelint:hotpath
func (p *Probabilistic) PickBatchSparse(us []float64, dst []int32) {
	pickBatchCumulative(p.cum, us, dst)
	if p.idx == nil {
		return // dense construction: positions already are stations
	}
	for j, k := range dst {
		dst[j] = p.idx[k]
	}
}

// pickBatchCumulative fills dst[j] with pickCumulative(cum, us[j]).
//
// Small tables take the branch-free prefix-sum walk: the first position
// whose cumulative weight strictly exceeds u equals the count of
// positions with cum[k] ≤ u (the table is non-decreasing), and that
// count is accumulated without a data-dependent branch. Both cum and u
// are non-negative IEEE floats, whose ordering matches their bit
// patterns' integer ordering, so cum[k] ≤ u reduces to the sign bit of
// bits(cum[k]) − bits(u) − 1 — one subtract and shift per table entry,
// fully pipelined across the batch. The strict-exceed semantics carry
// over exactly: zero-weight stations (empty intervals) stay unpickable.
//
// Large tables fall back to the same binary search the single-pick path
// uses; the batch still amortizes everything around the search.
func pickBatchCumulative(cum []float64, us []float64, dst []int32) {
	if len(cum) <= 16 {
		for j, u := range us {
			ub := int64(math.Float64bits(u))
			k := int32(0)
			for _, c := range cum {
				k += int32(uint64(int64(math.Float64bits(c))-ub-1) >> 63)
			}
			dst[j] = k
		}
		return
	}
	for j, u := range us {
		dst[j] = int32(sort.Search(len(cum), func(i int) bool { return cum[i] > u }))
	}
}

// batchSnapStations bounds the candidate-set size for which PickBatch
// keeps its depth snapshot in a direct-indexed stack array (one slot
// per candidate position). Wider candidate sets use a touched-list
// instead: at most MaxPickBatch·MaxSampleD distinct positions are
// sampled per chunk, so the list is small even when the fleet is not.
const batchSnapStations = 256

// PickBatch routes len(dst) decisions from per-decision random words
// (one word per decision, laid out exactly as PickU consumes it: d
// consecutive 16-bit station samples from bit 0). Each sampled
// candidate's depth is read through the DepthReader at most ONCE per
// call — the d·k candidate depths are snapshotted as they are first
// touched instead of re-read every decision — and the batch's own picks
// advance a local overlay, so a single-threaded batch routes exactly
// the stations k sequential PickU calls with per-pick depth increments
// would. The real counters are not touched here: the caller applies one
// batched increment per chosen station afterwards, which is what bounds
// the staleness other dispatchers observe by the batch size.
//
// Candidate sets wider than batchSnapStations fall back to a
// touched-list overlay whose scope is MaxPickBatch decisions: longer
// batches re-snapshot every MaxPickBatch picks, trading the exact
// sequential equivalence for a bounded touched list (the serving layer
// never exceeds that chunk size in one call, so it is unaffected).
//
//bladelint:hotpath
func (p *PowerOfD) PickBatch(bits []uint64, dst []int32) {
	if len(p.cand) <= batchSnapStations {
		p.pickBatchSnap(bits, dst)
		return
	}
	for len(dst) > MaxPickBatch {
		p.pickBatchWide(bits[:MaxPickBatch], dst[:MaxPickBatch])
		bits, dst = bits[MaxPickBatch:], dst[MaxPickBatch:]
	}
	if len(dst) > 0 {
		p.pickBatchWide(bits, dst)
	}
}

// pickBatchSnap is PickBatch's direct-indexed variant: one snapshot
// slot per candidate position (O(1) lookup, one stack clear per call),
// overlay carried across the whole batch.
func (p *PowerOfD) pickBatchSnap(bits []uint64, dst []int32) {
	nc := uint64(len(p.cand))
	var depth [batchSnapStations]int64
	var have [batchSnapStations]bool
	for j := range dst {
		b := bits[j]
		pos := int((b & sampleMask) * nc >> sampleBits)
		if !have[pos] {
			depth[pos] = p.depths.Depth(int(p.cand[pos]))
			have[pos] = true
		}
		best, bestPos := int(p.cand[pos]), pos
		bestDepth, bestCap := depth[pos], p.capac[pos]
		for k := 1; k < p.d; k++ {
			slice := (b >> (k * sampleBits)) & sampleMask
			pos = int(slice * nc >> sampleBits)
			st := int(p.cand[pos])
			if st == best {
				continue // duplicate sample: same score by construction
			}
			if !have[pos] {
				depth[pos] = p.depths.Depth(st)
				have[pos] = true
			}
			dep, c := depth[pos], p.capac[pos]
			// st beats best iff (dep+1)/c < (bestDepth+1)/bestCap.
			lhs := float64(dep+1) * bestCap
			rhs := float64(bestDepth+1) * c
			if lhs < rhs ||
				(lhs == rhs && (c > bestCap || (c == bestCap && st < best))) { //bladelint:allow floateq -- exact tie-break: equal cross-products defer to capacity then index, deterministically
				best, bestPos, bestDepth, bestCap = st, pos, dep, c
			}
		}
		dst[j] = int32(best)
		depth[bestPos]++ // the batch's own routed work, visible to later picks
	}
}

// pickBatchWide is the fallback for candidate sets too wide for the
// direct-indexed snapshot: touched positions and their depth overlay
// live in a compact list (≤ MaxPickBatch·MaxSampleD entries, which is
// why PickBatch caps this variant at MaxPickBatch decisions per pass),
// found by linear scan. Fleet-scale candidate sets trade a short scan
// per sample for not clearing a fleet-sized array per call.
func (p *PowerOfD) pickBatchWide(bits []uint64, dst []int32) {
	nc := uint64(len(p.cand))
	var tpos [MaxPickBatch * MaxSampleD]int32
	var tdep [MaxPickBatch * MaxSampleD]int64
	nt := 0
	for j := range dst {
		b := bits[j]
		pos := int((b & sampleMask) * nc >> sampleBits)
		ti := 0
		for ; ti < nt; ti++ {
			if tpos[ti] == int32(pos) {
				break
			}
		}
		if ti == nt {
			tpos[nt] = int32(pos)
			tdep[nt] = p.depths.Depth(int(p.cand[pos]))
			nt++
		}
		best, bestTi := int(p.cand[pos]), ti
		bestDepth, bestCap := tdep[ti], p.capac[pos]
		for k := 1; k < p.d; k++ {
			slice := (b >> (k * sampleBits)) & sampleMask
			pos = int(slice * nc >> sampleBits)
			st := int(p.cand[pos])
			if st == best {
				continue
			}
			ti = 0
			for ; ti < nt; ti++ {
				if tpos[ti] == int32(pos) {
					break
				}
			}
			if ti == nt {
				tpos[nt] = int32(pos)
				tdep[nt] = p.depths.Depth(st)
				nt++
			}
			dep, c := tdep[ti], p.capac[pos]
			lhs := float64(dep+1) * bestCap
			rhs := float64(bestDepth+1) * c
			if lhs < rhs ||
				(lhs == rhs && (c > bestCap || (c == bestCap && st < best))) { //bladelint:allow floateq -- exact tie-break: equal cross-products defer to capacity then index, deterministically
				best, bestTi, bestDepth, bestCap = st, ti, dep, c
			}
		}
		dst[j] = int32(best)
		tdep[bestTi]++
	}
}

// PickN implements sim.BatchPicker for the probabilistic policy:
// state-oblivious picks need no view snapshot, so the batch is simply k
// sequential draws.
func (p *Probabilistic) PickN(views []sim.StationView, rng *rand.Rand, dst []int) {
	for j := range dst {
		dst[j] = p.Pick(views, rng)
	}
}

// Batched wraps a dispatcher so the simulator routes arrivals in
// batches of k from one frozen view snapshot — the simulator-side model
// of the serving layer's DecideBatch: every k-th arrival
// snapshots the stations, the whole batch routes against that snapshot,
// and the intervening completions and arrivals are invisible until the
// next refill. State-aware inner policies see the batch's own picks
// through a local busy-count overlay (exactly DecideBatch's in-batch
// depth overlay), so what the wrapper measures is the pure staleness
// cost of batching, not a bookkeeping artifact. State-oblivious inner
// policies are unaffected by construction — the wrapper is then a
// harness for checking exactly that.
type Batched struct {
	inner sim.Dispatcher
	k     int
	snap  []sim.StationView
	queue []int
	pos   int
}

// NewBatched builds the batching wrapper; k is clamped to at least 1
// (k = 1 degenerates to the inner policy with per-arrival snapshots).
func NewBatched(inner sim.Dispatcher, k int) *Batched {
	if k < 1 {
		k = 1
	}
	return &Batched{inner: inner, k: k}
}

// Name implements sim.Dispatcher.
func (b *Batched) Name() string { return fmt.Sprintf("%s/batch%d", b.inner.Name(), b.k) }

// Pick implements sim.Dispatcher: serve the next queued decision,
// refilling the queue from the current views when it runs dry.
func (b *Batched) Pick(views []sim.StationView, rng *rand.Rand) int {
	if b.pos >= len(b.queue) {
		b.refill(views, rng)
	}
	st := b.queue[b.pos]
	b.pos++
	return st
}

// refill freezes the views and routes the next k arrivals against the
// frozen copy. Inner dispatchers implementing sim.BatchPicker route the
// whole batch in one call; any other policy is driven pick-by-pick over
// the snapshot with the local busy overlay advanced after each pick.
func (b *Batched) refill(views []sim.StationView, rng *rand.Rand) {
	if cap(b.queue) < b.k {
		b.queue = make([]int, b.k)
	}
	b.queue = b.queue[:b.k]
	b.pos = 0
	if bp, ok := b.inner.(sim.BatchPicker); ok {
		bp.PickN(views, rng, b.queue)
		return
	}
	b.snap = append(b.snap[:0], views...)
	for j := range b.queue {
		st := b.inner.Pick(b.snap, rng)
		b.queue[j] = st
		b.snap[st].Busy++ // in-batch overlay: later picks see the batch's own work
	}
}

// Fork implements sim.Forker so parallel replications neither share the
// wrapper's queue nor leak a half-consumed batch across runs.
func (b *Batched) Fork() sim.Dispatcher {
	inner := b.inner
	if f, ok := inner.(sim.Forker); ok {
		inner = f.Fork()
	}
	return NewBatched(inner, b.k)
}

var (
	_ sim.Dispatcher  = (*Batched)(nil)
	_ sim.Forker      = (*Batched)(nil)
	_ sim.BatchPicker = (*Probabilistic)(nil)
)
