package serve

import (
	"math/rand"
	randv2 "math/rand/v2"
	"sync"
	"sync/atomic"
)

// dispatchRand supplies the uniform variates the dispatch hot path
// consumes (one optional admission draw, one plan pick per request;
// Uint64 feeds the JSQ(d) station samples when the sharded fast path
// is off, so DeterministicRNG reproduces pick sequences bit-exactly).
type dispatchRand interface {
	Float64() float64
	Uint64() uint64
}

// lockedRand serializes a single math/rand generator behind a mutex —
// the Config.DeterministicRNG path. For a given seed it reproduces the
// exact draw sequence of the original single-RNG server, which is what
// the cross-version determinism tests pin.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

//bladelint:allow lock -- sequence reference: DeterministicRNG opts into the single-RNG mutex to pin exact draw sequences
func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}

//bladelint:allow lock -- sequence reference: DeterministicRNG opts into the single-RNG mutex to pin exact draw sequences
func (l *lockedRand) Uint64() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Uint64()
}

// shardedRNG is the lock-free default: GOMAXPROCS SplitMix64 states
// seeded from cfg.Seed. A draw picks a shard with a cheap per-thread
// random index and advances that shard's state with one atomic add.
// The SplitMix64 increment is odd, so a shard's state walks a
// full-period sequence even when concurrent draws interleave on it —
// interleaving permutes who gets which output, never the stream's
// statistical quality.
type shardedRNG struct {
	shards []rngShard
	mask   uint64
}

// rngShard pads each state word to its own cache line so concurrent
// draws on different shards never false-share.
type rngShard struct {
	state atomic.Uint64
	_     [120]byte
}

// splitmixGamma is Weyl-sequence increment of SplitMix64 (the odd
// integer nearest 2^64/φ).
const splitmixGamma = 0x9E3779B97F4A7C15

func newShardedRNG(seed int64) *shardedRNG {
	n := hotShards(randPickShardBits)
	r := &shardedRNG{shards: make([]rngShard, n), mask: uint64(n - 1)}
	s := uint64(seed)
	for i := range r.shards {
		// Each shard starts at a mixed, well-separated point of the
		// seed's Weyl sequence.
		s += splitmixGamma
		r.shards[i].state.Store(splitmix64(s))
	}
	return r
}

func (r *shardedRNG) Float64() float64 { return r.float64U(randv2.Uint64()) }

// Uint64 draws a full random word by advancing a randomly picked
// shard's SplitMix64 state. It completes dispatchRand; the hot path
// takes its JSQ(d) sample words from the per-request word or the
// per-thread generator instead (jsqBits).
func (r *shardedRNG) Uint64() uint64 { return r.uint64U(randv2.Uint64()) }

// float64U is Float64 with the shard-pick word supplied by the caller —
// the dispatch hot path draws one random word per request and feeds its
// shard-pick slice here instead of paying a second generator call.
func (r *shardedRNG) float64U(u uint64) float64 {
	z := r.uint64U(u)
	// 53 random bits over 2^53, the same [0, 1) lattice rand.Float64
	// draws from; z>>11 ≤ 2^53−1, so the result is always < 1.
	return float64(z>>11) / (1 << 53)
}

// uint64U advances the shard the low bits of u select and returns the
// mixed output. Only randPickShardBits bits of u are consumed (the
// shard count is capped to match); the variate's entropy comes from
// the shard's state walk, not from u.
//
//bladelint:allow randbits -- r.mask is the runtime shard count minus one, capped at 1<<randPickShardBits so it never reads past the rng slice the caller shifted in
func (r *shardedRNG) uint64U(u uint64) uint64 {
	sh := &r.shards[u&r.mask]
	return splitmix64(sh.state.Add(splitmixGamma))
}

// fillU draws len(dst) random words from the single shard the low bits
// of u select, paying ONE atomic add for the whole batch: the add
// reserves a len(dst)-step span of the shard's Weyl sequence and each
// reserved lattice point mixes into its own full-entropy output word.
// Concurrent batches (and interleaved single draws) on the same shard
// reserve disjoint spans, so no word is ever handed out twice.
//
//bladelint:allow randbits -- r.mask is the runtime shard count minus one, capped at 1<<randPickShardBits so it never reads past the rng slice the caller shifted in
func (r *shardedRNG) fillU(u uint64, dst []uint64) {
	sh := &r.shards[u&r.mask]
	stride := splitmixGamma * uint64(len(dst))
	base := sh.state.Add(stride) - stride
	for i := range dst {
		base += splitmixGamma
		dst[i] = splitmix64(base)
	}
}

// splitmix64 is the output mix of Steele, Lea & Flood's SplitMix64.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}
