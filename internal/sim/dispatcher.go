package sim

import "math/rand"

// StationView is the dispatcher-visible state of one station at a
// generic-task arrival instant.
type StationView struct {
	// Index identifies the station (0-based).
	Index int
	// Blades is the station size m_i.
	Blades int
	// Speed is the blade speed s_i.
	Speed float64
	// ServiceMean is x̄_i = r̄/s_i for the configured workload.
	ServiceMean float64
	// Busy is the number of blades currently serving.
	Busy int
	// QueueLen is the number of waiting tasks (both classes).
	QueueLen int
	// AvailableBlades is the number of non-failed blades (= Blades
	// unless failure injection is active).
	AvailableBlades int
	// Up reports whether the station can serve at all (at least one
	// blade available). Health-aware dispatchers should not route to
	// down stations; state-oblivious ones ignore this and pay for it.
	Up bool
}

// Dispatcher routes each arriving generic task to a station. Pick is
// called once per generic arrival with views that are current at that
// instant; it must return a valid station index. The views are
// read-only: the simulator keeps one slice for the whole run and
// refreshes only the station each event changes, so an entry Pick
// modifies stays wrong for later picks. A policy that needs scratch
// state copies the views (dispatch.Batched does). Implementations must
// be deterministic given the supplied rng.
type Dispatcher interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick selects the station for the arriving task. It must not
	// modify views.
	Pick(views []StationView, rng *rand.Rand) int
}

// BatchPicker is implemented by dispatchers that can route a whole
// batch of arrivals from one view snapshot — the simulator-side
// counterpart of the serving layer's DecideBatch. PickN fills dst with
// one station per pending arrival, all chosen against the supplied
// views; a state-aware implementation must account for its own in-batch
// picks (e.g. a local busy overlay) so the batch routes as k sequential
// Picks against self-updating state would. The batching wrapper
// (dispatch.Batched) prefers this interface and otherwise falls back to
// driving Pick over a frozen snapshot.
type BatchPicker interface {
	Dispatcher
	PickN(views []StationView, rng *rand.Rand, dst []int)
}

// Forker is implemented by stateful dispatchers (cycling counters,
// reusable buffers, adaptive weights). Fork returns an independent
// dispatcher in its initial state so that parallel replications neither
// race on shared fields nor leak state from one run into another.
// RunReplications forks the configured dispatcher once per replication
// when this interface is present; stateless dispatchers don't need it.
type Forker interface {
	Fork() Dispatcher
}
