package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/trace"
)

// ReplayConfig drives a simulation from a recorded trace instead of
// live random streams: the arrival times and execution requirements
// are taken verbatim from the trace, so two replays of the same trace
// with the same dispatcher seed are identical even across policies'
// randomness needs.
type ReplayConfig struct {
	// Group is the blade-server system (must have at least as many
	// servers as the trace references).
	Group *model.Group
	// Discipline selects FCFS or priority scheduling.
	Discipline queueing.Discipline
	// Trace supplies arrivals. Generic arrivals (Station = -1) are
	// routed by Dispatcher; special arrivals go to their station.
	Trace *trace.Trace
	// Dispatcher routes generic arrivals. Required if the trace
	// contains any.
	Dispatcher Dispatcher
	// Warmup drops observations from tasks arriving before this time.
	Warmup float64
	// Seed feeds the dispatcher's randomness only.
	Seed int64
}

// Replay runs the trace through the system and returns the same
// statistics as Run. The horizon is the trace's horizon; tasks still
// in the system at the end are not recorded.
func Replay(cfg ReplayConfig) (*RunResult, error) {
	if cfg.Group == nil {
		return nil, fmt.Errorf("sim: nil group")
	}
	if err := cfg.Group.Validate(); err != nil {
		return nil, err
	}
	if cfg.Trace == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	if err := cfg.Trace.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Discipline.Valid() {
		return nil, fmt.Errorf("sim: unknown discipline %d", int(cfg.Discipline))
	}
	if cfg.Warmup < 0 || cfg.Warmup >= cfg.Trace.Horizon {
		return nil, fmt.Errorf("sim: warmup %g must be in [0, trace horizon %g)", cfg.Warmup, cfg.Trace.Horizon)
	}
	n := cfg.Group.N()
	for _, a := range cfg.Trace.Arrivals {
		if a.Station >= n {
			return nil, fmt.Errorf("sim: trace references station %d but group has %d", a.Station, n)
		}
		if a.IsGeneric() && cfg.Dispatcher == nil {
			return nil, fmt.Errorf("sim: trace has generic arrivals but no dispatcher given")
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	cal := newCalendar()
	g := cfg.Group
	stations := make([]*station, n)
	for i, s := range g.Servers {
		stations[i] = &station{index: i, blades: s.Size, speed: s.Speed, discipline: cfg.Discipline}
	}
	res := &RunResult{
		PerStationGeneric: make([]metrics.Welford, n),
		Utilizations:      make([]float64, n),
	}
	p95, err := metrics.NewP2Quantile(0.95)
	if err != nil {
		return nil, err
	}
	views := newViews(stations, g.TaskSize)

	next := 0 // index into trace arrivals
	arrivals := cfg.Trace.Arrivals
	for next < len(arrivals) || !cal.empty() {
		// Process the earlier of next departure vs next arrival; on
		// ties the departure goes first so a freed blade can take the
		// arriving task, matching the live engine's heap order.
		if depTime, ok := cal.peekTime(); ok &&
			(next >= len(arrivals) || depTime <= arrivals[next].Time) {
			if depTime > cfg.Trace.Horizon {
				break
			}
			dep, _ := cal.next()
			handleDeparture(dep, stations, cal, res, p95, cfg.Warmup)
			stations[dep.station].refresh(&views[dep.station])
			continue
		}

		a := arrivals[next]
		next++
		now := a.Time
		t := task{arrival: now, req: a.Requirement}
		target := a.Station
		if a.IsGeneric() {
			t.class = Generic
			target = cfg.Dispatcher.Pick(views, rng)
			if target < 0 || target >= n {
				return nil, fmt.Errorf("sim: dispatcher %q picked invalid station %d", cfg.Dispatcher.Name(), target)
			}
			if now >= cfg.Warmup {
				res.ArrivedGeneric++
			}
		} else {
			t.class = Special
			if now >= cfg.Warmup {
				res.ArrivedSpecial++
			}
		}
		stations[target].admit(t, now, cal)
		stations[target].refresh(&views[target])
	}
	for i, st := range stations {
		res.Utilizations[i] = st.utilization(cfg.Trace.Horizon)
	}
	res.GenericP95 = p95.Value()
	res.Clock = cfg.Trace.Horizon
	return res, nil
}

// handleDeparture processes one departure event and records statistics
// for post-warmup tasks that finish within the horizon.
func handleDeparture(ev *event, stations []*station, cal *calendar, res *RunResult, p95 *metrics.P2Quantile, warmup float64) {
	st := stations[ev.station]
	if !st.depart(ev.time, cal, ev.id) {
		return // stale event (only possible with failure injection)
	}
	if ev.task.arrival >= warmup {
		resp := ev.time - ev.task.arrival
		if ev.task.class == Generic {
			res.GenericResponse.Add(resp)
			res.PerStationGeneric[ev.station].Add(resp)
			p95.Add(resp)
			res.CompletedGeneric++
		} else {
			res.SpecialResponse.Add(resp)
			res.CompletedSpecial++
		}
	}
}
