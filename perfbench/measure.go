package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// processCPU returns the user+system CPU time the process has used.
// Time the hypervisor steals from the guest is not charged to it, which
// is why CPU per op, not wall-clock throughput, is the capacity metric.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU returns the CPU time of the calling OS thread. Callers lock
// their goroutine to its thread, so the difference of two readings is
// the CPU the goroutine spent between them: unlike wall time it leaves
// out the time the host runs other work on this core.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}

// hostTicks reads the aggregate CPU line of /proc/stat: the steal ticks
// and the total of all ticks. It returns zeros where /proc is missing.
func hostTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// This guest moves between a fast and a slow CPU state for seconds to
// minutes at a time, up to ~40% apart, and every time a run measures
// moves with it. The benchmark therefore also times reference slices,
// fixed work that belongs to the benchmark, and reports its times at the
// reference speed: scaled by refNominal over the median slice. The
// host's state cancels; a change in the program, which the slices do not
// contain, still shows.
const refNominal = 50 * time.Microsecond

// refWork is the fixed slice: pseudo-random floats sorted, counted into
// a small map and summed.
type refWork struct {
	buf    [512]float64
	counts map[int]int
	x      uint64
}

func (r *refWork) slice() {
	if r.counts == nil {
		r.counts = make(map[int]int, 1024)
		r.x = 88172645463325252
	}
	for i := range r.buf {
		r.x ^= r.x << 13
		r.x ^= r.x >> 7
		r.x ^= r.x << 17
		r.buf[i] = float64(r.x>>11) / (1 << 53)
	}
	sort.Float64s(r.buf[:])
	for i := range r.buf {
		r.counts[int(r.x>>uint(i%50))&1023]++
	}
	sum := 0.0
	for _, v := range r.buf {
		sum += math.Sqrt(v)
	}
	r.buf[0] = sum
}

// The speed probe pauses the workload every probeEvery and times a
// burst of probeBurst reference slices on its own OS thread while none
// of the benchmark's work runs, so what the program does cannot slow
// the slices down. The first slice of a burst refills the caches the
// workload used and is not counted. A burst takes ~0.5 ms, about 0.25%
// of the phase.
const (
	probeEvery = 200 * time.Millisecond
	probeBurst = 8
)

type speedProbe struct {
	stop, done chan struct{}
	slices     []refSample
	cpu        time.Duration
}

// refSample is one reference slice's CPU time and when it ended.
type refSample struct {
	at time.Time
	ns float64
}

// startSpeedProbe starts the probe; the workload holds gate's read lock
// across each of its ops, and the probe its write lock across a burst.
func startSpeedProbe(gate *sync.RWMutex) *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var w refWork
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			gate.Lock()
			for i := 0; i < probeBurst; i++ {
				c := threadCPU()
				w.slice()
				d := threadCPU() - c
				p.cpu += d
				if i > 0 && len(p.slices) < reservoirSize {
					p.slices = append(p.slices, refSample{time.Now(), float64(d.Nanoseconds())})
				}
			}
			gate.Unlock()
		}
	}()
	return p
}

// finish stops the probe and waits for it to end.
func (p *speedProbe) finish() {
	close(p.stop)
	<-p.done
}

// phase measures one timed phase from outside the program: wall and
// process CPU time, the host's speed and steal share, and the Go
// runtime's allocation and GC counters.
type phase struct {
	wall, cpu           time.Duration
	stealPct            float64
	mallocs, allocBytes uint64
	gcs                 uint32
	gcPause             time.Duration
	// speed converts a time measured in the phase to the reference
	// speed; refSliceNs is the median of the slices reference slices it
	// comes from. cpu leaves out the probe's own CPU time. samples holds
	// the probe's slices, for scaling parts of the phase on their own.
	speed      float64
	refSliceNs float64
	slices     int
	samples    []refSample
}

type phaseMeter struct {
	t0           time.Time
	cpu0         time.Duration
	steal0, tot0 uint64
	ms0          runtime.MemStats
	probe        *speedProbe
}

// startPhase starts measuring a timed phase. With a non-nil gate a
// speed probe runs beside the workload, which must hold gate's read
// lock across each op; without one the workload times its own
// reference slices and passes them to setSpeed.
func startPhase(gate *sync.RWMutex) *phaseMeter {
	m := &phaseMeter{}
	runtime.ReadMemStats(&m.ms0)
	m.steal0, m.tot0 = hostTicks()
	if gate != nil {
		m.probe = startSpeedProbe(gate)
	}
	m.cpu0 = processCPU()
	m.t0 = time.Now()
	return m
}

func (m *phaseMeter) stop() phase {
	if m.probe != nil {
		m.probe.finish()
	}
	wall := time.Since(m.t0)
	cpu := processCPU() - m.cpu0
	steal, tot := hostTicks()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := phase{
		wall: wall, cpu: cpu,
		mallocs:    ms.Mallocs - m.ms0.Mallocs,
		allocBytes: ms.TotalAlloc - m.ms0.TotalAlloc,
		gcs:        ms.NumGC - m.ms0.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs - m.ms0.PauseTotalNs),
		speed:      1,
	}
	if m.probe != nil {
		p.cpu -= m.probe.cpu
		p.samples = m.probe.slices
		ns := make([]float64, len(p.samples))
		for i, x := range p.samples {
			ns[i] = x.ns
		}
		p.setSpeed(ns)
	}
	if tot > m.tot0 {
		p.stealPct = 100 * float64(steal-m.steal0) / float64(tot-m.tot0)
	}
	return p
}

// setSpeed derives the phase's scaling to the reference speed from the
// CPU times of reference slices timed during it.
func (p *phase) setSpeed(sliceNs []float64) {
	p.slices = len(sliceNs)
	p.refSliceNs = median(sliceNs)
	if p.refSliceNs > 0 {
		p.speed = float64(refNominal.Nanoseconds()) / p.refSliceNs
	}
}

// cpuPerOpUS is the end-to-end capacity metric: process CPU in the
// phase per op, in microseconds at the reference speed.
func (p phase) cpuPerOpUS(cpu time.Duration, ops int64) float64 {
	return float64(cpu.Nanoseconds()) / 1e3 / float64(ops) * p.speed
}

// speedBetween is the scaling to the reference speed of the part of the
// phase from t0 to t1, from the probe's slices in it; with fewer than
// minWindowSlices of them it is the whole phase's.
func (p phase) speedBetween(t0, t1 time.Time) float64 {
	var ns []float64
	for _, x := range p.samples {
		if !x.at.Before(t0) && x.at.Before(t1) {
			ns = append(ns, x.ns)
		}
	}
	if len(ns) < minWindowSlices {
		return p.speed
	}
	return float64(refNominal.Nanoseconds()) / median(ns)
}

// minWindowSlices is the least number of probe slices that scales a
// latency window on its own: two bursts.
const minWindowSlices = 2 * (probeBurst - 1)

// speedNote states the scaling to the reference speed and its base.
func (p phase) speedNote() string {
	return fmt.Sprintf("at the reference speed, x%.4f = %v / median of %d reference slices", p.speed, refNominal, p.slices)
}

// reportPhase records the per-layer metrics every workload takes from
// its untraced timed phase: runtime allocation and GC per op, host steal
// and wall-clock throughput (both diagnostic only).
func reportPhase(r *results, ph phase, ops int64) {
	fmt.Printf("host steal %.2f%% of CPU ticks over the %.3f s timed phase; median reference slice %.2f us (x%.4f to the reference speed)\n",
		ph.stealPct, ph.wall.Seconds(), ph.refSliceNs/1e3, ph.speed)
	n := float64(ops)
	base := fmt.Sprintf("ops=%d", ops)
	r.layer("runtime.allocs_per_op", float64(ph.mallocs)/n, base)
	r.layer("runtime.alloc_bytes_per_op", float64(ph.allocBytes)/n, base)
	r.layer("runtime.gc_per_kop", 1000*float64(ph.gcs)/n, joinNotes("gcs", ph.gcs, "ops", ops))
	r.layer("runtime.gc_pause_us_per_kop", 1000*float64(ph.gcPause.Microseconds())/n, base)
	r.layer("host.steal_pct", ph.stealPct, fmt.Sprintf("wall=%.3fs", ph.wall.Seconds()))
	r.layer("host.ref_slice_us", ph.refSliceNs/1e3, fmt.Sprintf("median CPU time of %d reference slices; %v at the reference speed", ph.slices, refNominal))
	r.layer("bench.wall_ops_per_s", n/ph.wall.Seconds(), joinNotes("ops", ops, "wall_s", fmt.Sprintf("%.3f", ph.wall.Seconds())))
}

// reservoir keeps a uniform sample of at most cap(buf) observations, so
// percentiles of a run of any length come from fixed memory; below the
// cap the sample is every observation and the percentiles are exact.
type reservoir struct {
	buf []float64
	n   int64
	rng *rand.Rand
}

const reservoirSize = 1 << 16

func newReservoir(seed int64) *reservoir { return newReservoirOf(seed, reservoirSize) }

func newReservoirOf(seed int64, size int) *reservoir {
	return &reservoir{buf: make([]float64, 0, size), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(x float64) {
	r.n++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, x)
		return
	}
	if j := r.rng.Int63n(r.n); j < int64(len(r.buf)) {
		r.buf[j] = x
	}
}

// quantile returns the p-quantile of the sample (linear interpolation
// between order statistics).
func (r *reservoir) quantile(p float64) float64 { return quantile(r.buf, p) }

// note states the percentile's sample count.
func (r *reservoir) note() string {
	if r.n > int64(len(r.buf)) {
		return fmt.Sprintf("n=%d sampled=%d", r.n, len(r.buf))
	}
	return fmt.Sprintf("n=%d", r.n)
}

// latencyWindows records round trips by the window of the timed phase
// they end in, one of latencyWindows equal windows, and reports a
// percentile as the median over the windows of each window's
// percentile. Contention on the host comes in bursts; one that covers a
// window or two of a run moves this far less than it moves the
// percentile of the pooled samples.
type latencyWindows struct {
	start time.Time
	width time.Duration
	wins  []*reservoir
	seed  int64
	n     int64
}

const (
	latencyWindowCount = 5
	// windowSamples bounds each window's sample; windowMinSamples is
	// the least a window needs to count towards the median.
	windowSamples    = 1 << 13
	windowMinSamples = 20
)

// newLatencyWindows starts the windows of a timed phase of length phase.
func newLatencyWindows(seed int64, phase time.Duration) *latencyWindows {
	return &latencyWindows{start: time.Now(), width: phase / latencyWindowCount, seed: seed}
}

func (l *latencyWindows) add(at time.Time, ms float64) {
	i := int(at.Sub(l.start) / l.width)
	for len(l.wins) <= i {
		l.wins = append(l.wins, newReservoirOf(l.seed+int64(len(l.wins)), windowSamples))
	}
	l.wins[i].add(ms)
	l.n++
}

// quantile returns the median over full-enough windows of each window's
// p-quantile, each scaled by speed(window start, window end), and how
// many windows it took the median over. With fewer than three such
// windows it returns the p-quantile of all the samples, scaled by
// speed over the whole phase, and 0.
func (l *latencyWindows) quantile(p float64, speed func(t0, t1 time.Time) float64) (float64, int) {
	var qs, all []float64
	for i, w := range l.wins {
		if w.n >= windowMinSamples {
			t0 := l.start.Add(time.Duration(i) * l.width)
			qs = append(qs, w.quantile(p)*speed(t0, t0.Add(l.width)))
		}
		all = append(all, w.buf...)
	}
	if len(qs) < 3 {
		return quantile(all, p) * speed(l.start, l.start.Add(time.Duration(len(l.wins))*l.width)), 0
	}
	return median(qs), len(qs)
}

// set records the p50 and p90 round-trip metrics of phase ph with their
// sample counts, each window's percentile at the reference speed of that
// window's probe slices, and returns the p50 as measured.
func (l *latencyWindows) set(r *results, what string, ph phase) (measuredP50 float64) {
	asMeasured := func(time.Time, time.Time) float64 { return 1 }
	for _, q := range []struct {
		name string
		p    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p90_ms", 0.9}} {
		v, wins := l.quantile(q.p, ph.speedBetween)
		raw, _ := l.quantile(q.p, asMeasured)
		how := fmt.Sprintf("median over %d windows of each window's percentile at the reference speed of the window's probe slices", wins)
		if wins == 0 {
			how = "percentile of all samples (too few per window); " + ph.speedNote()
		}
		if q.p == 0.5 {
			measuredP50 = raw
		}
		r.set(q.name, v, "ms", fmt.Sprintf("%s round trip; %s; n=%d; measured %.6g", what, how, l.n, raw))
	}
	for i, w := range l.wins {
		t0 := l.start.Add(time.Duration(i) * l.width)
		fmt.Printf("window %d: %d round trips, p50 %.4g ms as measured, x%.4f to the reference speed\n", i, w.n, w.quantile(0.5), ph.speedBetween(t0, t0.Add(l.width)))
	}
	return measuredP50
}

func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// repeatSetups runs fresh set-ups until n have run or budget is spent
// (at least three), and returns each one's duration. The first is the
// cold set-up; the median of the rest is setup_s.
func repeatSetups(n int, budget time.Duration, setup func() (time.Duration, error)) ([]time.Duration, error) {
	var ds []time.Duration
	start := time.Now()
	for len(ds) < n && (len(ds) < 3 || time.Since(start) < budget) {
		d, err := setup()
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// reportSetup records setup_s (median of the warm set-ups) and
// setup.cold_ms (the first set-up in the process).
func reportSetup(r *results, ds []time.Duration) {
	ms := durationsMS(ds)
	r.set("setup_s", median(ms[1:])/1e3, "s", fmt.Sprintf("median of %d fresh set-ups after the cold one", len(ms)-1))
	r.layer("setup.cold_ms", ms[0], "first set-up in the process")
}

// blockTimer times a cheap call in blocks, so the clock reads cost far
// less than the work; the median block time per call is the result.
func blockTimer(blocks, perBlock int, call func(i int)) (nsPerCall float64) {
	per := make([]float64, blocks)
	k := 0
	for b := 0; b < blocks; b++ {
		t0 := time.Now()
		for i := 0; i < perBlock; i++ {
			call(k)
			k++
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(perBlock)
	}
	return median(per)
}

// allocsPer counts heap allocations and bytes per call of fn over n calls.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// uniforms returns n seeded uniform variates in [0, 1); n must be a
// power of two so callers can index them with a mask.
func uniforms(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	us := make([]float64, n)
	for i := range us {
		us[i] = rng.Float64()
	}
	return us
}

// solveTimes runs solve n times and returns each run's wall time in ms.
func solveTimes(n int, solve func() error) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := solve(); err != nil {
			panic(fmt.Sprintf("perfbench: solve: %v", err)) // inputs come from a plan the daemon solved
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return out
}
