// Command perfbench is the end-to-end benchmark of the blade-server load
// balancer. Four workloads drive the serving daemon (over HTTP and
// in-process), the fleet-scale sparse solver and the simulator; each
// checks its outputs against the paper's analytic values and prints
// every metric by name, with its unit and sample count.
//
//	bash perfbench/run.sh --workload route-http --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it measures the same workload untraced for
// half the time and traced for the other half, adds direct passes over
// each layer's public functions, and reports the per-layer metrics.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness gate makes
// the command exit 1; an error that prevents measuring exits 2 without a
// result.
//
// layers.json records why each workload exists, the layers it loads and
// bypasses, and which end-to-end metric each per-layer metric should
// move. steady.py runs the command over several seeds and reports each
// metric's median and spread; steady.json holds the runs that showed the
// benchmark steady.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runParams are the command-line inputs every workload receives.
type runParams struct {
	seed    int64
	seconds float64
	trace   bool
}

// timed returns the length of the untraced timed phase: the whole run
// untraced, half of it when the run is traced.
func (p runParams) timed() time.Duration {
	d := time.Duration(p.seconds * float64(time.Second))
	if p.trace {
		d /= 2
	}
	return d
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results collects one run's metrics, the notes printed beside them
// (sample counts, ratio bases) and the correctness gates.
type results struct {
	attempted, failed int64
	metrics           map[string]metric
	notes             map[string]string
	gateFailed        bool
}

func newResults() *results {
	return &results{metrics: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric with a note stating its sample count or base.
func (r *results) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// gate prints a correctness check; a failing one fails the run.
func (r *results) gate(name string, ok bool, format string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAILED"
		r.gateFailed = true
	}
	fmt.Printf("gate %-28s %-6s %s\n", name, status, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(p runParams, r *results) error
}

var workloads = []workload{
	{"route-http", runRouteHTTP},
	{"kernel-jsq-burst", runKernelJSQBurst},
	{"replan-fleet", runReplanFleet},
	{"simulate-paper", runSimulatePaper},
}

func main() {
	name := flag.String("workload", "", "workload to run: route-http, kernel-jsq-burst, replan-fleet or simulate-paper")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	p := runParams{seed: *seed, seconds: *seconds, trace: *traced == 1}
	// Every workload runs on one P: client, daemon, solver and simulator
	// share one core. With a P per core of this 2-vCPU guest, route-http
	// paid ~55% more CPU per request for goroutine wake-ups across cores,
	// and replan-fleet's round trips, which need both cores at once, grew
	// by up to 60% whenever the host took one of them away (steal reached
	// 20%). Both then timed the host's scheduler more than the program.
	runtime.GOMAXPROCS(1)
	r := newResults()
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", w.name, p.seed, p.seconds, *traced)
	if err := w.run(p, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(2)
	}
	if r.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation was attempted\n", w.name)
		os.Exit(2)
	}
	if r.gateFailed {
		// The run's outputs are not trusted: every op counts as failed.
		r.failed = r.attempted
	}
	if !p.trace {
		r.set("success_ratio", float64(r.attempted-r.failed)/float64(r.attempted), "ratio",
			fmt.Sprintf("%d of %d ops", r.attempted-r.failed, r.attempted))
	}
	printResults(r, p.trace)
	if r.gateFailed {
		os.Exit(1)
	}
}

// printResults prints one line per metric of the run's kind (end-to-end
// or per-layer), then the JSON result line.
func printResults(r *results, traced bool) {
	out := map[string]metric{}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		if isE2E(name) != traced {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		out[name] = m
		fmt.Printf("metric %-36s %16.8g %-6s %s\n", name, m.Value, m.Unit, r.notes[name])
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{!r.gateFailed, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

// e2eNames are the end-to-end metrics; every other metric is per-layer.
var e2eNames = []string{
	"setup_s", "peak_rss_mb", "success_ratio", "cpu_us_per_op",
	"latency_p50_ms", "latency_p90_ms", "task_resp_mean", "task_resp_p95",
}

func isE2E(name string) bool {
	for _, n := range e2eNames {
		if n == name {
			return true
		}
	}
	return false
}

// layerMetrics are the per-layer metrics every traced run reports, with
// their units. A layer a workload bypasses reports 0: it did no work there.
var layerMetrics = []struct{ name, unit string }{
	{"net.self_us", "us"},
	{"serve.http.self_us", "us"},
	{"serve.http.allocs_per_req", "count"},
	{"serve.http.bytes_per_req", "B"},
	{"serve.http.resp_bytes", "B"},
	{"serve.kernel.decide_ns", "ns"},
	{"serve.kernel.decide_batch_ns", "ns"},
	{"serve.kernel.report_outcome_ns", "ns"},
	{"serve.kernel.allocs_per_decision", "count"},
	{"serve.kernel.resolves", "count"},
	{"serve.kernel.resolve_errors", "count"},
	{"serve.kernel.breaker_trips", "count"},
	{"serve.kernel.rejected", "count"},
	{"serve.plan.self_ms", "ms"},
	{"dispatch.pick_ns", "ns"},
	{"dispatch.jsq_pick_batch_ns", "ns"},
	{"core.solve_ms", "ms"},
	{"core.kkt_residual_max", "1"},
	{"sim.ns_per_event", "ns"},
	{"sim.pick_ns", "ns"},
	{"sim.allocs_per_run", "count"},
	{"setup.cold_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_per_kop", "count"},
	{"runtime.gc_pause_us_per_kop", "us"},
	{"host.steal_pct", "%"},
	{"host.ref_slice_us", "us"},
	{"bench.wall_ops_per_s", "1/s"},
	{"bench.self_us_per_op", "us"},
	{"bench.trace_overhead_pct", "%"},
}

// layer records a per-layer metric under its fixed unit.
func (r *results) layer(name string, v float64, note string) {
	for _, m := range layerMetrics {
		if m.name == name {
			r.set(name, v, m.unit, note)
			return
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}

// fillBypassed reports 0 for every per-layer metric the workload did not
// measure, naming the layer as bypassed.
func (r *results) fillBypassed() {
	for _, m := range layerMetrics {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit, "bypassed on this workload")
		}
	}
}

// joinNotes formats key=value notes.
func joinNotes(kv ...any) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v=%v", kv[i], kv[i+1])
	}
	return b.String()
}
