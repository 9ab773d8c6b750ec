package main

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
)

// virtualClock is the daemon's clock during a run. It reads the trace's
// virtual time, one paper time unit per second of daemon clock, so the
// rate estimator, drift check, admission control and breakers see the
// trace's λ′ however fast the machine drives the daemon. It only moves
// forward and is safe for concurrent use.
type virtualClock struct {
	ns atomic.Int64
}

// clockEpoch is virtual time zero: any fixed instant far from the zero
// time.Time, which the daemon treats as "never".
var clockEpoch = time.Unix(1_000_000_000, 0)

func (c *virtualClock) Now() time.Time { return clockEpoch.Add(time.Duration(c.ns.Load())) }

// advanceTo moves the clock to virtual time t (paper units), unless it
// already reads later.
func (c *virtualClock) advanceTo(t float64) {
	ns := int64(t * 1e9)
	for {
		cur := c.ns.Load()
		if ns <= cur || c.ns.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// fcfsBlades emulates the paper's FCFS blade servers in virtual time.
// Under FCFS a task, generic or special, starts on the blade that frees
// earliest once every earlier arrival has been placed, so its departure
// is known the moment it is admitted: no event calendar is needed, and
// tasks must be admitted in arrival order.
type fcfsBlades struct {
	speed []float64
	free  [][]float64 // per station, per blade: when the blade frees
}

func newFCFSBlades(g *model.Group) *fcfsBlades {
	e := &fcfsBlades{speed: make([]float64, g.N()), free: make([][]float64, g.N())}
	for i, s := range g.Servers {
		e.speed[i] = s.Speed
		e.free[i] = make([]float64, s.Size)
	}
	return e
}

// admit places a task arriving at station i at time t with execution
// requirement req and returns its departure time.
func (e *fcfsBlades) admit(i int, t, req float64) float64 {
	free := e.free[i]
	k := 0
	for j := 1; j < len(free); j++ {
		if free[j] < free[k] {
			k = j
		}
	}
	dep := math.Max(t, free[k]) + req/e.speed[i]
	free[k] = dep
	return dep
}

// respStats accumulates realized generic response times in fixed
// memory: their mean, and a uniform sample for the 95th percentile.
// Response times are autocorrelated, and a streaming estimator such as
// P² can settle far from the true percentile on such input.
type respStats struct {
	mean   metrics.Welford
	sample *reservoir
}

func newRespStats(seed int64) *respStats { return &respStats{sample: newReservoir(seed)} }

func (s *respStats) add(x float64) {
	s.mean.Add(x)
	s.sample.add(x)
}

func (s *respStats) p95() float64 { return s.sample.quantile(0.95) }
