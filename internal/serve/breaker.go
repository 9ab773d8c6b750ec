package serve

import (
	"sync/atomic"
	"time"
)

// BreakerConfig tunes the per-station circuit breakers that close the
// failure-detection loop: tracker statistics trip a breaker open, the
// open breaker forces a degraded re-solve that sheds the station, and
// a half-open trial stream earns the station its traffic back through
// a capped-weight ramp. The zero value takes all defaults.
type BreakerConfig struct {
	// Disabled turns automatic breaker transitions off entirely;
	// operator POST /v1/health remains the only health control.
	Disabled bool
	// ErrorThreshold is the EWMA failure fraction at which a closed
	// breaker trips, once MinVolume outcomes back the estimate.
	// Default 0.5.
	ErrorThreshold float64
	// MinVolume is the number of outcomes a station must have produced
	// since its last transition before the error rate can trip it —
	// the warm-up guard against tripping on one unlucky request.
	// Default 10.
	MinVolume int
	// PhiThreshold trips a loaded station whose completion stream has
	// gone silent: suspicion ≈ 0.43 × (silence / mean gap) must reach
	// this value. Default 8 (≈ 18 mean gaps of silence).
	PhiThreshold float64
	// OpenInterval is how long a freshly tripped breaker stays open
	// before probing; each reopen doubles it up to MaxOpenInterval.
	// Defaults 5s and 1m.
	OpenInterval    time.Duration
	MaxOpenInterval time.Duration
	// TrialFraction is the probability a dispatch is diverted to a
	// half-open station as a probe. Default 0.05.
	TrialFraction float64
	// TrialSuccesses is how many probe successes (without a failure)
	// close the breaker. Default 5.
	TrialSuccesses int
	// RampWindow is the capped-weight ramp after a breaker-driven
	// recovery: the readmitted station starts at a fraction of its
	// optimal rate and reaches full weight this long after closing.
	// Default 10s.
	RampWindow time.Duration
	// ScanInterval is the cadence of the background health scan that
	// evaluates trip conditions and advances open breakers.
	// Default 250ms.
	ScanInterval time.Duration
}

func (c *BreakerConfig) withDefaults() {
	if c.ErrorThreshold <= 0 || c.ErrorThreshold > 1 {
		c.ErrorThreshold = 0.5
	}
	if c.MinVolume <= 0 {
		c.MinVolume = 10
	}
	if c.PhiThreshold <= 0 {
		c.PhiThreshold = 8
	}
	if c.OpenInterval <= 0 {
		c.OpenInterval = 5 * time.Second
	}
	if c.MaxOpenInterval < c.OpenInterval {
		c.MaxOpenInterval = 12 * c.OpenInterval
	}
	if c.TrialFraction <= 0 || c.TrialFraction > 1 {
		c.TrialFraction = 0.05
	}
	if c.TrialSuccesses <= 0 {
		c.TrialSuccesses = 5
	}
	if c.RampWindow <= 0 {
		c.RampWindow = 10 * time.Second
	}
	if c.ScanInterval <= 0 {
		c.ScanInterval = 250 * time.Millisecond
	}
}

// Breaker states. The hot path only distinguishes closed from
// not-closed; transitions happen in the scan goroutine and in
// recordOutcome's reopen CAS.
const (
	breakerClosed int32 = iota
	breakerHalfOpen
	breakerOpen
)

// breakerStateNames is indexed by the state constants.
var breakerStateNames = [3]string{"closed", "half-open", "open"}

// rampMinFactor is the weight floor a just-recovered station ramps up
// from — it re-enters at 10% of its optimal rate, never cold-starts at
// full load.
const rampMinFactor = 0.1

// breakerState is one station's breaker. All fields are atomics: the
// dispatch hot path loads state/pinned on every request, and the scan
// goroutine, outcome recorder, and health handler mutate them without
// a shared lock. state and rampStart change only through the
// breakerSet's setters (setState, casState, setRamp), which keep its
// exception counts.
type breakerState struct {
	state  atomic.Int32
	pinned atomic.Bool // operator "down": transitions frozen, station excluded
	// openUntil is when an open breaker may go half-open (unix nanos);
	// interval is the current open duration, doubling per reopen.
	openUntil atomic.Int64
	interval  atomic.Int64
	// trialOK counts consecutive probe successes in half-open.
	trialOK atomic.Int64
	// rampStart stamps a breaker-driven close (unix nanos); zero means
	// no ramp in progress.
	rampStart atomic.Int64
	trips     atomic.Int64
	_         [48]byte
}

// breakerSet bundles the per-station breakers with the derived hot
// path constants and the shared trial pointer.
type breakerSet struct {
	disabled      bool
	trialFraction float64
	// trialBits is TrialFraction scaled to the randTrialBits-wide coin
	// slice of the per-request random word the lock-free hot path
	// compares against (see randbits.go for the layout).
	trialBits uint64
	// openBase/openMax bound the exponential open-interval backoff.
	openBase, openMax int64
	// trial publishes the station index currently admitting half-open
	// probes (-1 when none) so the hot path pays one atomic load to
	// know whether a trial coin must be flipped at all.
	trial    atomic.Int64
	stations []breakerState
	// notClosed counts the stations whose breaker is not closed, and
	// ramping those whose ramp is running (rampStart > 0). Each changes
	// only where a Swap or CAS of the field it counts succeeds and
	// changes the station's standing, by that change, so concurrent
	// transitions cannot make it drift. While both read zero, no
	// breaker excludes or caps a station (see exceptions).
	notClosed, ramping atomic.Int64
	// redirects counts dispatches whose picked station was rejected by
	// its breaker and were re-drawn; trials counts probe admissions.
	redirects atomic.Int64
	trials    atomic.Int64
}

func newBreakerSet(n int, cfg BreakerConfig) *breakerSet {
	b := &breakerSet{
		disabled:      cfg.Disabled,
		trialFraction: cfg.TrialFraction,
		trialBits:     uint64(cfg.TrialFraction * (1 << randTrialBits)),
		openBase:      int64(cfg.OpenInterval),
		openMax:       int64(cfg.MaxOpenInterval),
		stations:      make([]breakerState, n),
	}
	b.trial.Store(-1)
	for i := range b.stations {
		b.stations[i].interval.Store(int64(cfg.OpenInterval))
	}
	return b
}

// rejects reports whether the station's breaker currently refuses
// ordinary (non-probe) traffic. Hot path: two atomic loads.
func (b *breakerSet) rejects(station int) bool {
	if station < 0 || station >= len(b.stations) {
		return false
	}
	s := &b.stations[station]
	return s.state.Load() != breakerClosed || s.pinned.Load()
}

// onOutcome applies a completion to the station's breaker. Only
// half-open breakers react here — a single failed probe reopens the
// breaker immediately with a doubled interval, without waiting for the
// next scan. Hot-path discipline: atomics only.
func (b *breakerSet) onOutcome(station int, kind Outcome, atNanos int64) {
	if b.disabled || station < 0 || station >= len(b.stations) {
		return
	}
	s := &b.stations[station]
	if s.state.Load() != breakerHalfOpen {
		return
	}
	if kind == OutcomeSuccess {
		s.trialOK.Add(1)
		return
	}
	if b.casState(s, breakerHalfOpen, breakerOpen) {
		b.reopen(s, atNanos)
	}
}

// setState moves s's breaker to state v and returns the state it left,
// counting the move.
func (b *breakerSet) setState(s *breakerState, v int32) int32 {
	old := s.state.Swap(v)
	b.countState(old, v)
	return old
}

// casState moves s's breaker from state from to state to if it is still
// in from, counting the move, and reports whether it moved.
func (b *breakerSet) casState(s *breakerState, from, to int32) bool {
	if !s.state.CompareAndSwap(from, to) {
		return false
	}
	b.countState(from, to)
	return true
}

// countState moves notClosed by a breaker's move from state from to
// state to.
func (b *breakerSet) countState(from, to int32) {
	switch {
	case from == breakerClosed && to != breakerClosed:
		b.notClosed.Add(1)
	case from != breakerClosed && to == breakerClosed:
		b.notClosed.Add(-1)
	}
}

// setRamp stamps s's ramp start (unix nanos; zero or less ends the
// ramp), counting a ramp that starts or ends.
func (b *breakerSet) setRamp(s *breakerState, at int64) {
	switch old := s.rampStart.Swap(at); {
	case old <= 0 && at > 0:
		b.ramping.Add(1)
	case old > 0 && at <= 0:
		b.ramping.Add(-1)
	}
}

// exceptions returns the number of stations whose breaker is not
// closed plus the number whose ramp is running. At zero, every breaker
// is closed and no ramp runs, so the breakers neither exclude a
// station an operator has up nor cap one: a pinned station is operator
// down.
func (b *breakerSet) exceptions() int64 {
	return b.notClosed.Load() + b.ramping.Load()
}

// reopen arms an open period from atNanos using the current interval,
// then doubles the stored interval (capped at openMax) so a flapping
// station backs off exponentially instead of thrashing the plan.
func (b *breakerSet) reopen(s *breakerState, atNanos int64) {
	iv := s.interval.Load()
	s.openUntil.Store(atNanos + iv)
	if next := 2 * iv; next <= b.openMax {
		s.interval.Store(next)
	} else {
		s.interval.Store(b.openMax)
	}
	s.trips.Add(1)
	s.trialOK.Store(0)
}

// resetTo returns a breaker to the closed state with its backoff
// rearmed from the base interval — operator "up" overrides and
// breaker-driven closes both land here. It returns the state the
// breaker left.
func (b *breakerSet) resetTo(s *breakerState) int32 {
	old := b.setState(s, breakerClosed)
	s.interval.Store(b.openBase)
	s.openUntil.Store(0)
	s.trialOK.Store(0)
	return old
}

// snapshotTrial republishes which station (if any) is admitting
// probes. Called by the scan after transitions; at most one station
// runs trials at a time, lowest index first, so probe traffic is never
// split thin across several recovering stations. With every breaker
// closed there is none to look for.
func (b *breakerSet) snapshotTrial() {
	if b.notClosed.Load() == 0 {
		b.trial.Store(-1)
		return
	}
	for i := range b.stations {
		s := &b.stations[i]
		if s.state.Load() == breakerHalfOpen && !s.pinned.Load() {
			b.trial.Store(int64(i))
			return
		}
	}
	b.trial.Store(-1)
}
