package sim

// Class distinguishes the two task populations of the model.
type Class int

const (
	// Generic tasks arrive in one stream and may run on any server.
	Generic Class = iota
	// Special tasks are dedicated to one server.
	Special
)

// String returns the class name.
func (c Class) String() string {
	if c == Special {
		return "special"
	}
	return "generic"
}

// task is one unit of work flowing through the simulation.
type task struct {
	class    Class
	arrival  float64 // absolute arrival time
	req      float64 // execution requirement (instructions)
	degraded bool    // arrived while some station was fully down
}

// eventKind discriminates scheduler events.
type eventKind int

const (
	evGenericArrival eventKind = iota // next generic-stream arrival
	evSpecialArrival                  // next special-stream arrival at .station
	evDeparture                       // task completes on a blade of .station
	evFailure                         // failure-schedule transition at .station
	evRetry                           // backoff retry of a blocked generic task
)

// event is a scheduled occurrence. Departure events carry the finishing
// task so its response time can be recorded, plus the service id that
// lets a blade failure invalidate them; failure events carry the new
// down-blade count; retry events carry the task and its attempt count.
type event struct {
	time    float64
	kind    eventKind
	station int
	task    task
	id      uint64 // service id (departures), see station.active
	down    int    // new down-blade count (failures)
	attempt int    // retries already performed (retry events)
}

// entry is what the calendar's heap orders: an event's (time, seq) key
// and the slab slot that holds the event itself. At 24 bytes against
// the event's 80, a sift step moves a third of the memory, and the
// event is written once when scheduled and never moved after.
type entry struct {
	time float64
	seq  uint64 // FIFO tie-break for equal times
	slot int
}

// before is the calendar's order. (time, seq) is a strict total order
// (seq is unique), so any correct heap pops events in exactly one
// sequence: changing the heap's shape or arity cannot change a run.
func (a entry) before(b entry) bool {
	if a.time != b.time { //bladelint:allow floateq -- heap order must be exact and total for replay determinism; tolerance breaks transitivity
		return a.time < b.time
	}
	return a.seq < b.seq
}

// calendarCap pre-sizes the heap, the slab and the free list. Without
// failures a run holds at most one generic arrival, one special arrival
// per station and one departure per blade, 64 events on Example 1, so
// none of the three grows unless failure transitions, all scheduled at
// start-up, run into the thousands.
const calendarCap = 1024

// calendar is the future-event list: a binary min-heap of entries over
// a slab of events with a free list of slots. It is hand-rolled on
// concrete types because container/heap's interface{}-based Push and
// Pop box every element on the way in and out, which at simulator
// rates dominated the allocation profile.
type calendar struct {
	h    []entry
	slab []event
	free []int
	// held is the slot of the event the last next returned, or -1. It
	// joins the free list at the following next, so the caller may
	// schedule events while it still reads the one it popped.
	held int
	seq  uint64
}

func newCalendar() *calendar {
	return &calendar{
		h:    make([]entry, 0, calendarCap),
		slab: make([]event, 0, calendarCap),
		free: make([]int, 0, calendarCap),
		held: -1,
	}
}

func (c *calendar) schedule(e event) {
	var slot int
	if k := len(c.free); k > 0 {
		slot = c.free[k-1]
		c.free = c.free[:k-1]
		c.slab[slot] = e
	} else {
		slot = len(c.slab)
		c.slab = append(c.slab, e)
	}
	c.h = append(c.h, entry{})
	c.up(len(c.h)-1, entry{time: e.time, seq: c.seq, slot: slot})
	c.seq++
}

// next removes the earliest event and returns a pointer to it in the
// slab. The pointer stays valid until the following next: the slot is
// not reused before then, and an append that moves the slab to a new
// array leaves the old array, which the pointer still reads, intact.
func (c *calendar) next() (*event, bool) {
	if c.held >= 0 {
		c.free = append(c.free, c.held)
		c.held = -1
	}
	if len(c.h) == 0 {
		return nil, false
	}
	top := c.h[0]
	last := len(c.h) - 1
	x := c.h[last]
	c.h = c.h[:last]
	if last > 0 {
		c.down(0, x)
	}
	c.held = top.slot
	return &c.slab[top.slot], true
}

// up moves x from the hole at i towards the root, shifting each parent
// it passes down into the hole, and stores x where the hole stops.
func (c *calendar) up(i int, x entry) {
	h := c.h
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// down moves the hole at i towards the leaves, shifting the earlier
// child up into it each step, and stores x where the hole stops.
func (c *calendar) down(i int, x entry) {
	h := c.h
	n := len(h)
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

func (c *calendar) empty() bool { return len(c.h) == 0 }

// peekTime returns the time of the earliest scheduled event; ok is
// false when the calendar is empty.
func (c *calendar) peekTime() (float64, bool) {
	if len(c.h) == 0 {
		return 0, false
	}
	return c.h[0].time, true
}

// fifo is an allocation-friendly FIFO queue of tasks backed by a
// sliding window over a slice.
type fifo struct {
	buf  []task
	head int
}

func (q *fifo) push(t task) { q.buf = append(q.buf, t) }

func (q *fifo) pop() (task, bool) {
	if q.head >= len(q.buf) {
		return task{}, false
	}
	t := q.buf[q.head]
	q.head++
	// Compact once the dead prefix dominates, amortized O(1).
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return t, true
}

func (q *fifo) len() int { return len(q.buf) - q.head }
