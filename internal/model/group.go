package model

import (
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/queueing"
)

// Group is a heterogeneous group of blade servers sharing one generic
// task stream, plus the workload parameters common to all of them.
type Group struct {
	// Servers S_1..S_n. Must be non-empty.
	Servers []Server
	// TaskSize r̄ is the mean task execution requirement (instructions).
	// Applies to generic and special tasks alike. Must be positive.
	TaskSize float64
}

// Validate checks all parameters of the group.
func (g *Group) Validate() error {
	if len(g.Servers) == 0 {
		return fmt.Errorf("model: group has no servers")
	}
	if g.TaskSize <= 0 || math.IsNaN(g.TaskSize) || math.IsInf(g.TaskSize, 0) {
		return fmt.Errorf("model: task size %g must be positive and finite", g.TaskSize)
	}
	for i, s := range g.Servers {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("server %d: %w", i+1, err)
		}
		if s.SpecialUtilization(g.TaskSize) >= 1 {
			return fmt.Errorf("model: server %d saturated by special tasks alone (ρ″=%g)",
				i+1, s.SpecialUtilization(g.TaskSize))
		}
	}
	return nil
}

// N returns the number of servers.
func (g *Group) N() int { return len(g.Servers) }

// TotalBlades returns m = Σ m_i.
func (g *Group) TotalBlades() int {
	total := 0
	for _, s := range g.Servers {
		total += s.Size
	}
	return total
}

// TotalSpecialRate returns λ″ = Σ λ″_i.
func (g *Group) TotalSpecialRate() float64 {
	var sum numeric.KahanSum
	for _, s := range g.Servers {
		sum.Add(s.SpecialRate)
	}
	return sum.Value()
}

// MaxGenericRate returns λ′_max = Σ (m_i s_i/r̄ − λ″_i), the saturation
// point of the total generic arrival rate (§5 of the paper).
func (g *Group) MaxGenericRate() float64 {
	var sum numeric.KahanSum
	for _, s := range g.Servers {
		sum.Add(s.MaxGenericRate(g.TaskSize))
	}
	return sum.Value()
}

// Feasible reports whether the allocation rates (one generic rate per
// server) keeps every server strictly stable and is non-negative.
func (g *Group) Feasible(rates []float64) error {
	if len(rates) != len(g.Servers) {
		return fmt.Errorf("model: %d rates for %d servers", len(rates), len(g.Servers))
	}
	for i, r := range rates {
		if r < 0 || math.IsNaN(r) {
			return fmt.Errorf("model: rate %g for server %d must be non-negative", r, i+1)
		}
		if rho := g.Servers[i].Utilization(r, g.TaskSize); rho >= 1 {
			return fmt.Errorf("model: server %d unstable at λ′=%g (ρ=%g)", i+1, r, rho)
		}
	}
	return nil
}

// AverageResponseTime returns T′ = Σ (λ′_i/λ′)·T′_i for the given
// allocation under discipline d, where λ′ = Σ λ′_i. It is the objective
// the optimizer minimizes. See MeanResponseTime for the totalling rules.
func (g *Group) AverageResponseTime(d queueing.Discipline, rates []float64) float64 {
	if len(rates) != len(g.Servers) {
		panic(fmt.Sprintf("model: %d rates for %d servers", len(rates), len(g.Servers)))
	}
	return MeanResponseTime(rates, g.ResponseTimes(d, rates))
}

// MeanResponseTime returns T′ = Σ (λ′_i/λ′)·T′_i, where λ′ = Σ λ′_i,
// for an allocation rates whose servers respond in times. Both sums are
// compensated and run in server order. Servers with λ′_i = 0 carry no
// generic tasks and do not contribute. Returns +Inf if any loaded
// server is saturated, and 0 if the total rate is 0. Every T′ the
// optimizer reports is totalled here, so equal inputs give equal bits.
func MeanResponseTime(rates, times []float64) float64 {
	if len(rates) != len(times) {
		panic(fmt.Sprintf("model: %d rates for %d response times", len(rates), len(times)))
	}
	var total numeric.KahanSum
	for _, r := range rates {
		total.Add(r)
	}
	lambda := total.Value()
	if lambda == 0 { //bladelint:allow floateq -- exact zero total: no special load configured anywhere
		return 0
	}
	var acc numeric.KahanSum
	for i, r := range rates {
		if r == 0 { //bladelint:allow floateq -- exact zero rate contributes nothing and would divide by zero below
			continue
		}
		if math.IsInf(times[i], 1) {
			return math.Inf(1)
		}
		acc.Add(r / lambda * times[i])
	}
	return acc.Value()
}

// Utilizations returns ρ_i for each server under the given allocation.
func (g *Group) Utilizations(rates []float64) []float64 {
	out := make([]float64, len(g.Servers))
	for i, s := range g.Servers {
		out[i] = s.Utilization(rates[i], g.TaskSize)
	}
	return out
}

// ResponseTimes returns T′_i for each server under the given allocation
// and discipline.
func (g *Group) ResponseTimes(d queueing.Discipline, rates []float64) []float64 {
	out := make([]float64, len(g.Servers))
	for i, s := range g.Servers {
		out[i] = s.GenericResponseTime(d, rates[i], g.TaskSize)
	}
	return out
}

// Clone returns a deep copy of the group.
func (g *Group) Clone() *Group {
	servers := make([]Server, len(g.Servers))
	copy(servers, g.Servers)
	return &Group{Servers: servers, TaskSize: g.TaskSize}
}

// PaperGroup constructs the canonical system of Examples 1–2 and most
// figures of the paper: n servers with sizes m_i, speeds s_i, task size
// r̄, and special rates λ″_i = y·m_i/x̄_i (each server preloaded to a
// fraction y of its capacity).
func PaperGroup(sizes []int, speeds []float64, rbar, specialFraction float64) (*Group, error) {
	if len(sizes) != len(speeds) {
		return nil, fmt.Errorf("model: %d sizes but %d speeds", len(sizes), len(speeds))
	}
	servers := make([]Server, len(sizes))
	for i := range sizes {
		s := Server{Size: sizes[i], Speed: speeds[i]}
		// λ″_i = y·m_i/x̄_i = y·m_i·s_i/r̄.
		s.SpecialRate = specialFraction * float64(sizes[i]) * speeds[i] / rbar
		servers[i] = s
	}
	g := &Group{Servers: servers, TaskSize: rbar}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// LiExample1Group returns the exact system of Example 1/2 and Table 1/2:
// n = 7, m_i = 2i, s_i = 1.7 − 0.1i, r̄ = 1, λ″_i = 0.3·m_i/x̄_i.
func LiExample1Group() *Group {
	sizes := make([]int, 7)
	speeds := make([]float64, 7)
	for i := 1; i <= 7; i++ {
		sizes[i-1] = 2 * i
		speeds[i-1] = 1.7 - 0.1*float64(i)
	}
	g, err := PaperGroup(sizes, speeds, 1.0, 0.3)
	if err != nil {
		panic(err) // parameters are constants; cannot fail
	}
	return g
}
