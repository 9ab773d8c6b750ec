package main

import (
	"math"
	"math/rand"

	"repro/internal/model"
	"repro/internal/trace"
)

// arrivalStream generates a workload's arrivals as they are consumed, in
// time order: one generic stream, Poisson or a two-state MMPP, and one
// Poisson special stream per station, every task with an Exp(r̄)
// execution requirement — the process trace.Generate and
// trace.GenerateMMPP sample. It holds one pending arrival per stream, so
// a run of any length uses fixed memory and never repeats itself, and
// the seed fixes the whole stream.
type arrivalStream struct {
	rng  *rand.Rand
	rbar float64
	// next is each stream's next arrival time: index 0 is the generic
	// stream, index i+1 the special stream of station i.
	next  []float64
	rates []float64
	// The generic stream alternates between rate high (mean sojourn
	// meanHigh) and low (meanLow) at switchAt; high == low is Poisson.
	high, low, meanHigh, meanLow float64
	inHigh                       bool
	switchAt                     float64
}

// newPoissonStream is the paper's workload: Poisson generic arrivals at
// rate lambda.
func newPoissonStream(g *model.Group, lambda float64, seed int64) *arrivalStream {
	return newMMPPStream(g, lambda, lambda, math.Inf(1), math.Inf(1), seed)
}

// newMMPPStream modulates the generic rate between high and low with
// exponential sojourns of the given means, starting in a random state.
func newMMPPStream(g *model.Group, high, low, meanHigh, meanLow float64, seed int64) *arrivalStream {
	s := &arrivalStream{
		rng: rand.New(rand.NewSource(seed)), rbar: g.TaskSize,
		next: make([]float64, g.N()+1), rates: make([]float64, g.N()+1),
		high: high, low: low, meanHigh: meanHigh, meanLow: meanLow,
	}
	s.inHigh = s.rng.Intn(2) == 0
	s.rates[0] = s.genericRate()
	s.switchAt = s.sojourn()
	for i, srv := range g.Servers {
		s.rates[i+1] = srv.SpecialRate
	}
	for k := range s.next {
		s.next[k] = s.gap(k)
	}
	return s
}

func (s *arrivalStream) genericRate() float64 {
	if s.inHigh {
		return s.high
	}
	return s.low
}

func (s *arrivalStream) sojourn() float64 {
	if s.inHigh {
		return s.rng.ExpFloat64() * s.meanHigh
	}
	return s.rng.ExpFloat64() * s.meanLow
}

// gap draws the time to stream k's next arrival (+Inf at rate 0).
func (s *arrivalStream) gap(k int) float64 {
	if s.rates[k] <= 0 {
		return math.Inf(1)
	}
	return s.rng.ExpFloat64() / s.rates[k]
}

// nextArrival returns the earliest pending arrival and draws its
// stream's successor.
func (s *arrivalStream) nextArrival() trace.Arrival {
	for {
		k := 0
		for j := 1; j < len(s.next); j++ {
			if s.next[j] < s.next[k] {
				k = j
			}
		}
		t := s.next[k]
		if s.switchAt <= t {
			// The modulating state flips before the next arrival; by
			// memorylessness the generic stream restarts at the switch.
			at := s.switchAt
			s.inHigh = !s.inHigh
			s.rates[0] = s.genericRate()
			s.switchAt = at + s.sojourn()
			s.next[0] = at + s.gap(0)
			continue
		}
		s.next[k] = t + s.gap(k)
		return trace.Arrival{Time: t, Station: k - 1, Requirement: s.rng.ExpFloat64() * s.rbar}
	}
}
