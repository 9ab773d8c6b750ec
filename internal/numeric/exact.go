package numeric

import (
	"math"
	"math/bits"
)

// ExactSum accumulates float64 values exactly and rounds the total once,
// to nearest with ties to even, when Value is read. The result is the
// correctly rounded sum of the terms, so it does not depend on their
// order or grouping: adding k copies of x with AddMul gives the same
// float as k calls of Add(x) spread anywhere in the sequence.
//
// It is the small superaccumulator of Neal, "Fast exact summation using
// small and large superaccumulators" (arXiv 1505.05571): 67 signed
// 32-bit digits, each held in an int64 word, span every float64 from
// the smallest subnormal 2^-1074 to beyond the largest finite value.
// Adding a term splits its mantissa over two or four adjacent words, so
// a word overflows only after some 2^11 additions; carries are
// propagated every exactCarryEvery additions and before each Value.
// Only the words a term touched are carried and rounded.
//
// NaN and ±Inf terms propagate as float addition propagates them: any
// NaN, or both infinities, give NaN; otherwise an infinite term gives
// its infinity. A finite total beyond the float64 range rounds to ±Inf.
// An exact zero total is +0, except that a sum of only -0 terms is -0.
//
// The zero value is an empty sum. No method allocates.
type ExactSum struct {
	chunk [exactChunks]int64
	// bot and top bound the words that may be non-zero, [bot, top);
	// top == 0 when no finite non-zero term has been added.
	bot, top int
	// adds counts additions since the words were last carried.
	adds int
	// flags records terms that touch no word: infinities, NaN, zeros.
	flags uint8
}

const (
	exactChunkBits = 32
	exactChunkMask = 1<<exactChunkBits - 1
	// exactChunks words: a float64 exponent field (11 bits) selects word
	// exp>>5, at most 63, and a term's pieces reach three words above
	// it (AddMul), so 67 words hold every term.
	exactChunks = 67
	// exactCarryEvery bounds the additions between carries. A carried
	// word is below 2^32 in magnitude and an addition adds less than
	// 2^52 to a word, so 2^10 additions keep every word below 2^63;
	// the words are carried before an addition would pass the bound.
	exactCarryEvery = 1 << 10
	// exactBias is the exponent of word 0's unit: a float with exponent
	// field e and integer mantissa f is f·2^(e-1075), with subnormals
	// taken at e = 1.
	exactBias = 1075

	exactPosInf  = 1 << 0
	exactNegInf  = 1 << 1
	exactNaN     = 1 << 2
	exactPosZero = 1 << 3
	exactNegZero = 1 << 4
)

// Add adds x to the sum.
func (s *ExactSum) Add(x float64) {
	s.AddSlice([]float64{x})
}

// AddSlice adds every element of xs, as that many calls of Add would.
// Consecutive terms that fall on the same pair of words are summed in
// registers before they touch the words, which makes a slice of
// similar magnitudes cheaper than one Add per term.
func (s *ExactSum) AddSlice(xs []float64) {
	j0, n0 := -1, 0
	var lo0, hi0 int64
	for _, x := range xs {
		b := math.Float64bits(x)
		exp := int(b>>52) & 0x7ff
		mant := b&(1<<52-1) | 1<<52
		if uint(exp-1) >= 0x7fe {
			// Zero, subnormal, ±Inf or NaN.
			if !s.addUnusual(x, b) {
				continue
			}
			exp, mant = 1, b&(1<<52-1)
		}
		// x is (lo + hi·2^32)·2^(32j - exactBias): mant·2^(exp&31) has
		// up to 84 bits, its low 32 in lo and the rest, below 2^52, in hi.
		j := exp >> 5
		if j != j0 || n0 == exactCarryEvery {
			// 2^10 terms of a run cannot overflow the registers.
			if n0 > 0 {
				s.addWords(j0, lo0, hi0, n0)
			}
			j0, n0, lo0, hi0 = j, 0, 0, 0
		}
		sh := uint(exp & 31)
		lo := int64(mant << sh & exactChunkMask)
		hi := int64(mant >> (exactChunkBits - sh))
		if int64(b) < 0 {
			lo, hi = -lo, -hi
		}
		lo0 += lo
		hi0 += hi
		n0++
	}
	if n0 > 0 {
		s.addWords(j0, lo0, hi0, n0)
	}
}

// addWords adds lo and hi, the pieces of n terms, to words j and j+1.
func (s *ExactSum) addWords(j int, lo, hi int64, n int) {
	if s.adds+n > exactCarryEvery {
		s.carry()
	}
	s.chunk[j] += lo
	s.chunk[j+1] += hi
	s.touch(j, j+2, n)
}

// AddMul adds k copies of x to the sum, exactly as k calls of Add(x)
// would: the product k·x is never rounded. k = 0 adds nothing; k must
// be in [0, 2^32), and AddMul panics otherwise.
func (s *ExactSum) AddMul(k int, x float64) {
	if uint(k) > math.MaxUint32 {
		panic("numeric: ExactSum.AddMul count outside [0, 2^32)")
	}
	if k == 0 {
		return
	}
	b := math.Float64bits(x)
	exp := int(b>>52) & 0x7ff
	mant := b&(1<<52-1) | 1<<52
	if uint(exp-1) >= 0x7fe {
		if !s.addUnusual(x, b) {
			return
		}
		exp, mant = 1, b&(1<<52-1)
	}
	// k·mant has up to 85 bits and the shift adds up to 31: four
	// 32-bit pieces for words j..j+3.
	ph, pl := bits.Mul64(mant, uint64(k))
	sh := uint(exp & 31)
	ph = ph<<sh | pl>>(64-sh)
	pl <<= sh
	d0, d1 := int64(pl&exactChunkMask), int64(pl>>exactChunkBits)
	d2, d3 := int64(ph&exactChunkMask), int64(ph>>exactChunkBits)
	if int64(b) < 0 {
		d0, d1, d2, d3 = -d0, -d1, -d2, -d3
	}
	if s.adds+1 > exactCarryEvery {
		s.carry()
	}
	j := exp >> 5
	s.chunk[j] += d0
	s.chunk[j+1] += d1
	s.chunk[j+2] += d2
	s.chunk[j+3] += d3
	s.touch(j, j+4, 1)
}

// touch widens the live range to cover words [lo, hi) and counts n
// more additions since the last carry.
func (s *ExactSum) touch(lo, hi, n int) {
	if s.top == 0 {
		s.bot, s.top = lo, hi
	}
	s.bot = min(s.bot, lo)
	s.top = max(s.top, hi)
	s.adds += n
}

// addUnusual records a term with a biased exponent of 0 or 0x7ff: zeros,
// infinities and NaN touch no word. It reports whether x is a subnormal,
// which the caller adds with exponent 1. It is kept out of line so the
// common path of the callers' loops stays small.
//
//go:noinline
func (s *ExactSum) addUnusual(x float64, b uint64) bool {
	switch {
	case b&^(1<<63) == 0:
		if int64(b) < 0 {
			s.flags |= exactNegZero
		} else {
			s.flags |= exactPosZero
		}
	case b>>52&0x7ff != 0x7ff:
		return true
	case math.IsNaN(x):
		s.flags |= exactNaN
	case x > 0:
		s.flags |= exactPosInf
	default:
		s.flags |= exactNegInf
	}
	return false
}

// carry normalizes the live words without changing the value: every
// word below the top one ends in [0, 2^32), and the top one in
// [-2^32, 2^32), spilling into new words above while it does not fit.
func (s *ExactSum) carry() {
	s.adds = 0
	if s.top == 0 {
		return
	}
	for j := s.bot; j < s.top-1; j++ {
		c := s.chunk[j] >> exactChunkBits
		s.chunk[j] -= c << exactChunkBits
		s.chunk[j+1] += c
	}
	for j := s.top - 1; j < exactChunks-1; j++ {
		c := s.chunk[j] >> exactChunkBits
		if c == 0 || c == -1 {
			break
		}
		s.chunk[j] -= c << exactChunkBits
		s.chunk[j+1] += c
		s.top = j + 2
	}
}

// negate flips the sign of the value held in the live words.
func (s *ExactSum) negate() {
	for j := s.bot; j < s.top; j++ {
		s.chunk[j] = -s.chunk[j]
	}
}

// Value returns the sum of every term added so far, correctly rounded.
// It leaves the sum unchanged, so more terms may follow.
func (s *ExactSum) Value() float64 {
	if s.flags&(exactPosInf|exactNegInf|exactNaN) != 0 {
		switch {
		case s.flags&exactNaN != 0, s.flags&(exactPosInf|exactNegInf) == exactPosInf|exactNegInf:
			return math.NaN()
		case s.flags&exactPosInf != 0:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	s.carry()
	t := s.topWord()
	if t < 0 {
		if s.top == 0 && s.flags&exactNegZero != 0 && s.flags&exactPosZero == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}
	if s.chunk[t] > 0 {
		return s.round(t)
	}
	// Below the top non-zero word every word is non-negative, so a
	// negative top word makes the value negative. Round its magnitude,
	// then restore the words.
	s.negate()
	s.carry()
	v := -s.round(s.topWord())
	s.negate()
	return v
}

// topWord returns the highest non-zero live word, or -1 for a zero sum.
func (s *ExactSum) topWord() int {
	for t := s.top - 1; t >= s.bot; t-- {
		if s.chunk[t] != 0 {
			return t
		}
	}
	return -1
}

// round converts the positive carried value whose top non-zero word is
// t to the nearest float64, ties to even.
func (s *ExactSum) round(t int) float64 {
	// X = hi·2^64 + lo holds words t, t-1 and t-2 (zero below bot); its
	// value is X·2^(32(t-2) - exactBias). hi is below 2^33.
	hi := uint64(s.chunk[t])
	var lo uint64
	if t-1 >= s.bot {
		lo = uint64(s.chunk[t-1]) << exactChunkBits
	}
	if t-2 >= s.bot {
		lo |= uint64(s.chunk[t-2])
	}
	l := bits.Len64(hi)
	m := hi<<(64-l) | lo>>l // X's leading 64 bits, top bit set
	sticky := lo&(1<<l-1) != 0
	for j := s.bot; j < t-2 && !sticky; j++ {
		sticky = s.chunk[j] != 0
	}
	// The value is m·2^e2 (plus the sticky tail); its leading bit has
	// weight 2^(e2+63).
	e2 := l + exactChunkBits*(t-2) - exactBias
	drop := 11 // a normal result keeps 53 of m's 64 bits
	if p := e2 + 63; p < -1022 {
		drop = -1074 - e2 // a subnormal keeps the bits from 2^-1074 up
	}
	mant := m >> drop
	rest := m & (1<<drop - 1)
	half := uint64(1) << (drop - 1)
	if rest > half || rest == half && (sticky || mant&1 == 1) {
		mant++
	}
	if drop > 11 {
		// Subnormal: the encoding is the mantissa itself, and a carry
		// into bit 52 lands on the smallest normal exactly.
		return math.Float64frombits(mant)
	}
	biased := e2 + 11 + 52 + 1023
	if mant == 1<<53 {
		mant >>= 1
		biased++
	}
	if biased >= 0x7ff {
		return math.Inf(1)
	}
	return math.Float64frombits(uint64(biased)<<52 | mant&(1<<52-1))
}

// SumExact returns the correctly rounded sum of xs, the same float as
// an ExactSum of them. Most sums take a fast path: the error-free
// cascade Sum2 of Ogita, Rump and Oishi ("Accurate sum and dot
// product", SIAM J. Sci. Comput. 26(6), 2005) leaves the exact sum as
// s + E, E the sum of its rounding errors, and computes c ≈ E with a
// bound B on |c − E|. r = fl(s + c) is then the correctly rounded sum
// whenever s + c lies within h − B of r, h the smaller half-gap between
// r and its neighbours. The rest, and any sum near the ends of the
// float64 range, go through an ExactSum.
func SumExact(xs []float64) float64 {
	if len(xs) > 0 && len(xs) < 1<<20 {
		s := xs[0]
		big := math.Abs(s)
		var c, a float64 // c sums the rounding errors e_i, a their magnitudes
		for _, x := range xs[1:] {
			t := s + x
			z := t - s
			e := (s - (t - z)) + (x - z) // t + e = s + x exactly
			s = t
			c += e
			a += math.Abs(e)
			big = max(big, math.Abs(x))
		}
		r := s + c
		z := r - s
		t := (s - (r - z)) + (c - z) // r + t = s + c exactly
		// c sums n−1 errors recursively, so |c − E| ≤ γ_{n−2}·Σ|e_i| ≤
		// 4n·u·a with u = 2^-53; the bound below is at least that. The
		// magnitude guards keep every step above underflow and below
		// overflow, and fail on NaN and ±Inf.
		if ar := math.Abs(r); ar >= 0x1p-900 && big < 0x1p1000 && !(a > 0 && a < 0x1p-900) {
			h := (ar - math.Nextafter(ar, 0)) / 2
			if math.Abs(t)+float64(len(xs))*(0x1p-50*a) < h {
				return r
			}
		}
	}
	var acc ExactSum
	acc.AddSlice(xs)
	return acc.Value()
}
