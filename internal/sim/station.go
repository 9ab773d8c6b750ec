package sim

import "repro/internal/queueing"

// serviceRec tracks one in-service task so that a blade failure can
// cancel its scheduled departure: the departure event carries the same
// id, and an event whose id is no longer in the active set is stale.
type serviceRec struct {
	id     uint64
	task   task
	depart float64 // absolute scheduled completion time
}

// station is the runtime state of one blade server: m blades (some of
// which may be failed), a waiting room (one queue under FCFS, two under
// priority), and busy-time accounting for utilization measurements.
type station struct {
	index      int
	blades     int
	speed      float64
	discipline queueing.Discipline

	down   int          // blades currently failed
	busy   int          // blades currently serving
	active []serviceRec // in-service tasks, for failure cancellation
	nextID uint64

	generics fifo // waiting generic tasks (FCFS uses only this, mixed)
	specials fifo // waiting special tasks (priority discipline only)

	busyIntegral float64 // ∫ busy dt, for measured utilization
	lastChange   float64 // time of last busy-count change

	fullDownTime float64 // accumulated time with zero available blades
	fullSince    float64 // start of the current full outage (if fullDown)
	fullDown     bool
}

// available returns the number of non-failed blades.
func (s *station) available() int {
	if s.down >= s.blades {
		return 0
	}
	return s.blades - s.down
}

// queueLen returns the number of waiting tasks of both classes.
func (s *station) queueLen() int { return s.generics.len() + s.specials.len() }

// refresh copies into v the station state that events change. Every
// event changes at most the station it names, so the engines refresh
// that station's view after the event and the views stay current for
// the next Pick without rebuilding the others.
func (s *station) refresh(v *StationView) {
	v.Busy = s.busy
	v.QueueLen = s.queueLen()
	v.AvailableBlades = s.available()
	v.Up = v.AvailableBlades > 0
}

// newViews returns the dispatcher views of stations in their current
// state; taskSize is the mean requirement r̄.
func newViews(stations []*station, taskSize float64) []StationView {
	views := make([]StationView, len(stations))
	for i, st := range stations {
		views[i] = StationView{Index: i, Blades: st.blades, Speed: st.speed, ServiceMean: taskSize / st.speed}
		st.refresh(&views[i])
	}
	return views
}

// accrue advances the busy-time integral to time now.
func (s *station) accrue(now float64) {
	s.busyIntegral += float64(s.busy) * (now - s.lastChange)
	s.lastChange = now
}

// start puts t into service on a free blade and schedules its departure.
func (s *station) start(t task, now float64, cal *calendar) {
	s.accrue(now)
	s.busy++
	s.nextID++
	rec := serviceRec{id: s.nextID, task: t, depart: now + t.req/s.speed}
	s.active = append(s.active, rec)
	cal.schedule(event{time: rec.depart, kind: evDeparture, station: s.index, task: t, id: rec.id})
}

// fill starts waiting tasks while free blades remain (specials first
// under priority; strict arrival order under FCFS, where the two
// classes share the generics queue).
func (s *station) fill(now float64, cal *calendar) {
	for s.busy < s.available() {
		next, ok := s.specials.pop() // empty unless priority discipline
		if !ok {
			next, ok = s.generics.pop()
		}
		if !ok {
			return
		}
		s.start(next, now, cal)
	}
}

// admit handles a task arriving at the station at time now. If a
// non-failed blade is free the task enters service and its departure is
// scheduled; otherwise it joins the waiting room.
func (s *station) admit(t task, now float64, cal *calendar) {
	if s.busy < s.available() {
		s.start(t, now, cal)
		return
	}
	if s.discipline == queueing.Priority && t.class == Special {
		s.specials.push(t)
		return
	}
	s.generics.push(t)
}

// depart handles a service completion at time now. It returns false for
// a stale event — a departure whose task was cancelled by an earlier
// blade failure — in which case no state changes and no statistics
// should be recorded.
func (s *station) depart(now float64, cal *calendar, id uint64) bool {
	i := s.findActive(id)
	if i < 0 {
		return false
	}
	s.active[i] = s.active[len(s.active)-1]
	s.active = s.active[:len(s.active)-1]
	s.accrue(now)
	s.busy--
	s.fill(now, cal)
	return true
}

func (s *station) findActive(id uint64) int {
	for i := range s.active {
		if s.active[i].id == id {
			return i
		}
	}
	return -1
}

// failureOutcome reports what setDown did to in-flight tasks, per class.
type failureOutcome struct {
	requeuedGeneric, requeuedSpecial int
	lostGeneric, lostSpecial         int
}

// setDown applies a failure-schedule transition at time now: after the
// call, downBlades blades are unavailable. If the surviving blades
// cannot hold all in-service tasks, the most recently started ones are
// evicted — requeued with their residual requirement (resume semantics)
// or dropped, per the drop flag. On repair, waiting tasks are started
// onto the recovered blades. Full-outage time is accounted for the
// availability metrics.
func (s *station) setDown(downBlades int, now float64, cal *calendar, drop bool) failureOutcome {
	if downBlades < 0 {
		downBlades = 0
	}
	s.accrue(now)
	s.down = downBlades
	var out failureOutcome
	for s.busy > s.available() {
		// Evict the most recently started task: it has lost the least
		// progress. Its departure event becomes stale (id removed).
		rec := s.active[len(s.active)-1]
		s.active = s.active[:len(s.active)-1]
		s.busy--
		if drop {
			if rec.task.class == Generic {
				out.lostGeneric++
			} else {
				out.lostSpecial++
			}
			continue
		}
		t := rec.task
		t.req = (rec.depart - now) * s.speed // residual work
		if t.class == Generic {
			out.requeuedGeneric++
		} else {
			out.requeuedSpecial++
		}
		if s.discipline == queueing.Priority && t.class == Special {
			s.specials.push(t)
		} else {
			s.generics.push(t)
		}
	}
	s.fill(now, cal) // repairs may have freed blades
	full := s.available() == 0
	if full && !s.fullDown {
		s.fullDown, s.fullSince = true, now
	} else if !full && s.fullDown {
		s.fullDown = false
		s.fullDownTime += now - s.fullSince
	}
	return out
}

// downtime returns the total full-outage time over [0, horizon].
func (s *station) downtime(horizon float64) float64 {
	d := s.fullDownTime
	if s.fullDown && horizon > s.fullSince {
		d += horizon - s.fullSince
	}
	return d
}

// utilization returns the measured per-blade utilization over [0, now],
// relative to the nameplate blade count (failed blades still count in
// the denominator, so an outage shows up as lost utilization).
func (s *station) utilization(now float64) float64 {
	if now <= 0 {
		return 0
	}
	s.accrue(now)
	return s.busyIntegral / (float64(s.blades) * now)
}
