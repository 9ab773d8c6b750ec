package numeric

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// exactTerm is one addition: count copies of x (count 1 is Add).
type exactTerm struct {
	x     float64
	count int
}

// bigSum is the oracle: the terms summed in a 4,096-bit big.Float, which
// holds any such sum exactly, then rounded once to nearest-even.
// NaN and ±Inf follow float addition; signed zeros follow IEEE 754, an
// empty sum being +0.
func bigSum(terms []exactTerm) float64 {
	var nan, pos, neg bool
	acc := new(big.Float).SetPrec(4096)
	acc.Neg(acc) // -0: the identity of IEEE addition, so all -0 terms stay -0
	any := false
	for _, tm := range terms {
		if tm.count == 0 {
			continue
		}
		switch {
		case math.IsNaN(tm.x):
			nan = true
			continue
		case math.IsInf(tm.x, 1):
			pos = true
			continue
		case math.IsInf(tm.x, -1):
			neg = true
			continue
		}
		any = true
		v := new(big.Float).SetPrec(4096).SetFloat64(tm.x)
		v.Mul(v, new(big.Float).SetPrec(4096).SetInt64(int64(tm.count)))
		acc.Add(acc, v)
	}
	switch {
	case nan || pos && neg:
		return math.NaN()
	case pos:
		return math.Inf(1)
	case neg:
		return math.Inf(-1)
	case !any:
		return 0
	}
	f, _ := acc.Float64()
	return f
}

func exactSumOf(terms []exactTerm) float64 {
	var s ExactSum
	for _, tm := range terms {
		if tm.count == 1 {
			s.Add(tm.x)
		} else {
			s.AddMul(tm.count, tm.x)
		}
	}
	return s.Value()
}

// sliceSumOf is exactSumOf with each run of single terms added by one
// AddSlice.
func sliceSumOf(terms []exactTerm) float64 {
	var s ExactSum
	var run []float64
	for _, tm := range terms {
		if tm.count == 1 {
			run = append(run, tm.x)
			continue
		}
		s.AddSlice(run)
		run = run[:0]
		s.AddMul(tm.count, tm.x)
	}
	s.AddSlice(run)
	return s.Value()
}

// checkSumExact checks SumExact, fast path and fallback alike, on the
// terms' values taken once each (counts ignored).
func checkSumExact(t *testing.T, name string, terms []exactTerm) {
	t.Helper()
	xs := make([]float64, len(terms))
	single := make([]exactTerm, len(terms))
	for i, tm := range terms {
		xs[i] = tm.x
		single[i] = exactTerm{tm.x, 1}
	}
	if got, want := SumExact(xs), bigSum(single); !sameFloat(got, want) {
		t.Errorf("%s by SumExact: got %v (%#x), want %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func adds(xs ...float64) []exactTerm {
	out := make([]exactTerm, len(xs))
	for i, x := range xs {
		out[i] = exactTerm{x, 1}
	}
	return out
}

// TestExactSumMatchesBig checks ExactSum against the big.Float oracle on
// hand-picked edge cases — subnormals, ties, cancellation, the ends of
// the exponent range, signed zeros, NaN and ±Inf, counts up to 2^31-1 —
// and on seeded random sums at exponents up to 1e300.
func TestExactSumMatchesBig(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	maxF := math.MaxFloat64
	ulp1 := math.Nextafter(1, 2) - 1
	negZero := math.Copysign(0, -1)
	cases := map[string][]exactTerm{
		"empty":               nil,
		"+0":                  adds(0),
		"-0":                  adds(negZero),
		"-0 -0":               adds(negZero, negZero),
		"-0 +0":               adds(negZero, 0),
		"cancel to +0":        adds(1.5, -1.5),
		"cancel -0 count":     {{negZero, 7}, {negZero, 1}},
		"count zero":          {{negZero, 0}, {math.Inf(1), 0}, {1, 0}},
		"tie to even down":    adds(1, ulp1/2),
		"tie to even up":      adds(1+ulp1, ulp1/2),
		"tie broken by tail":  adds(1, ulp1/2, tiny),
		"tie broken below":    adds(1, ulp1/2, -tiny),
		"subnormals":          adds(tiny, tiny, 3*tiny, -tiny),
		"subnormal to normal": adds(math.Float64frombits(1<<52-1), tiny),
		"smallest normal":     {{tiny, 1 << 30}, {tiny, 1 << 22}},
		"max finite":          adds(maxF, -maxF, maxF),
		"overflow":            adds(maxF, maxF),
		"overflow then back":  adds(maxF, maxF, -maxF),
		"overflow tie":        adds(maxF, math.Ldexp(1, 970)),
		"below overflow tie":  adds(maxF, math.Ldexp(1, 969)),
		"negative overflow":   adds(-maxF, -maxF),
		"huge cancellation":   adds(1e300, 1, -1e300),
		"1e-300 and 1e300":    adds(1e-300, 1e300, -1e300),
		"count max int31":     {{0.1, 1<<31 - 1}, {-0.1, 1}},
		"count max with tail": {{1e300, 1<<31 - 1}, {-1e300, 1<<31 - 2}, {1e-300, 3}},
		"count of subnormal":  {{tiny, 1<<31 - 1}},
		"count of max":        {{maxF, 1<<31 - 1}, {-maxF, 1<<31 - 1}, {1, 1}},
		"count max uint32":    {{0.3, math.MaxUint32}},
		"negative total":      {{-0.1, 1000}, {0.05, 3}},
		"nan":                 adds(1, math.NaN(), 2),
		"+inf":                adds(1, math.Inf(1), -maxF),
		"-inf":                {{math.Inf(-1), 3}, {maxF, 1}},
		"inf minus inf":       adds(math.Inf(1), math.Inf(-1)),
		"inf and nan":         adds(math.Inf(1), math.NaN()),
	}
	// Long enough to carry several times, with a running total that
	// changes sign.
	var long []exactTerm
	for i := 0; i < 5000; i++ {
		long = append(long, exactTerm{math.Ldexp(float64(i%97)-48.25, i%61-30), 1 + i%3})
	}
	cases["carries"] = long
	// Longer than a register run, all on one pair of words.
	var run []exactTerm
	for i := 0; i < 5000; i++ {
		run = append(run, exactTerm{1 + float64(i)/8192, 1})
	}
	run = append(run, exactTerm{-1, 4999})
	cases["one long run"] = run
	for name, terms := range cases {
		want := bigSum(terms)
		if got := exactSumOf(terms); !sameFloat(got, want) {
			t.Errorf("%s: got %v (%#x), want %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got := sliceSumOf(terms); !sameFloat(got, want) {
			t.Errorf("%s by AddSlice: got %v (%#x), want %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		checkSumExact(t, name, terms)
	}

	rng := rand.New(rand.NewSource(20261019))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(60)
		if trial%100 == 0 {
			n = 3000
		}
		// A window of exponents somewhere between the subnormals and
		// 1e300, so terms overlap and cancel.
		base := rng.Intn(2100) - 1100
		width := 1 + rng.Intn(120)
		terms := make([]exactTerm, n)
		for i := range terms {
			x := math.Ldexp(rng.Float64(), base+rng.Intn(width))
			if rng.Intn(2) == 0 {
				x = -x
			}
			count := 1
			switch rng.Intn(4) {
			case 0:
				count = rng.Intn(1 << 31)
			case 1:
				count = 1 + rng.Intn(200)
			}
			terms[i] = exactTerm{x, count}
			if rng.Intn(8) == 0 && i > 0 {
				// Cancel an earlier term, leaving only the low bits.
				terms[i] = exactTerm{-terms[i-1].x, terms[i-1].count}
			}
		}
		want := bigSum(terms)
		if got := exactSumOf(terms); !sameFloat(got, want) {
			t.Fatalf("trial %d (n=%d, base 2^%d): got %v (%#x), want %v (%#x)",
				trial, n, base, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got := sliceSumOf(terms); !sameFloat(got, want) {
			t.Fatalf("trial %d by AddSlice: got %v (%#x), want %v (%#x)",
				trial, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		checkSumExact(t, fmt.Sprintf("trial %d", trial), terms)
	}
}

// TestExactSumOrderFree pins what the solver relies on: k Adds of x
// spread through a sum equal one AddMul(k, x), in any order.
func TestExactSumOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(20))
		ks := make([]int, len(xs))
		for i := range xs {
			xs[i] = rng.ExpFloat64() * math.Ldexp(1, rng.Intn(40)-20)
			ks[i] = rng.Intn(300)
		}
		var perClass, perStation ExactSum
		for i, x := range xs {
			perClass.AddMul(ks[i], x)
		}
		var order []int
		for i, k := range ks {
			for j := 0; j < k; j++ {
				order = append(order, i)
			}
		}
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			perStation.Add(xs[i])
		}
		if a, b := perClass.Value(), perStation.Value(); !sameFloat(a, b) {
			t.Fatalf("trial %d: per class %v, per station %v", trial, a, b)
		}
	}
}

// TestExactSumValueThenMore checks that reading the value leaves the
// sum intact, so more terms may follow.
func TestExactSumValueThenMore(t *testing.T) {
	var s ExactSum
	s.Add(-0.25)
	s.AddMul(3, 1e-20)
	first := s.Value()
	if again := s.Value(); !sameFloat(first, again) {
		t.Fatalf("second Value %v, first %v", again, first)
	}
	s.Add(1)
	if got, want := s.Value(), bigSum([]exactTerm{{-0.25, 1}, {1e-20, 3}, {1, 1}}); !sameFloat(got, want) {
		t.Fatalf("after more terms: got %v, want %v", got, want)
	}
}

func TestExactSumAddMulRejectsBadCounts(t *testing.T) {
	for _, k := range []int{-1, math.MaxUint32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddMul(%d, 1) did not panic", k)
				}
			}()
			var s ExactSum
			s.AddMul(k, 1)
		}()
	}
}

func TestExactSumAllocates(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		var s ExactSum
		s.Add(1.5)
		s.AddMul(7, -1e-3)
		_ = s.Value()
	}); n != 0 {
		t.Errorf("%v allocations per sum", n)
	}
}

// FuzzExactSum decodes the input as a sequence of 13-byte terms: a
// selector byte (odd: AddMul, else Add), the term's float64 bits, and
// a count below 2^31. Whatever the terms, ExactSum must agree with the
// big.Float oracle, at every eighth term and at the end, and so must
// the same terms with each run of Adds made one AddSlice.
func FuzzExactSum(f *testing.F) {
	seed := func(terms ...exactTerm) []byte {
		var out []byte
		for _, tm := range terms {
			var rec [13]byte
			if tm.count != 1 {
				rec[0] = 1
			}
			binary.LittleEndian.PutUint64(rec[1:], math.Float64bits(tm.x))
			binary.LittleEndian.PutUint32(rec[9:], uint32(tm.count))
			out = append(out, rec[:]...)
		}
		return out
	}
	ulp1 := math.Nextafter(1, 2) - 1
	f.Add(seed(exactTerm{1, 1}, exactTerm{ulp1 / 2, 1}))
	f.Add(seed(exactTerm{math.MaxFloat64, 3}, exactTerm{-math.MaxFloat64, 2}))
	f.Add(seed(exactTerm{math.SmallestNonzeroFloat64, 1<<31 - 1}, exactTerm{-1e-300, 1}))
	f.Add(seed(exactTerm{math.Copysign(0, -1), 5}, exactTerm{math.Inf(1), 1}))
	f.Add(seed(exactTerm{0.1, 1000}, exactTerm{-0.3, 333}, exactTerm{1e300, 1}, exactTerm{-1e300, 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s ExactSum
		var terms []exactTerm
		// The oracle re-sums from scratch at every check, so long inputs
		// are cut to keep each run fast.
		for len(data) >= 13 && len(terms) < 256 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
			k := 1
			if data[0]&1 == 1 {
				k = int(binary.LittleEndian.Uint32(data[9:]) & (1<<31 - 1))
				s.AddMul(k, x)
			} else {
				s.Add(x)
			}
			terms = append(terms, exactTerm{x, k})
			data = data[13:]
			if len(terms)%8 == 0 {
				if got, want := s.Value(), bigSum(terms); !sameFloat(got, want) {
					t.Fatalf("after %d terms: got %v (%#x), want %v (%#x)", len(terms), got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		want := bigSum(terms)
		if got := s.Value(); !sameFloat(got, want) {
			t.Fatalf("%d terms: got %v (%#x), want %v (%#x)", len(terms), got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got := sliceSumOf(terms); !sameFloat(got, want) {
			t.Fatalf("%d terms by AddSlice: got %v (%#x), want %v (%#x)", len(terms), got, math.Float64bits(got), want, math.Float64bits(want))
		}
		checkSumExact(t, "fuzz", terms)
	})
}
