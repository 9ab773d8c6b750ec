package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader carries the traced client's request id to the span
// middleware, so the client's and the handler's spans of one request
// share an id.
const requestIDHeader = "X-Perfbench-Request"

// span is one traced interval at a layer boundary. Times are nanoseconds
// since the log was opened.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the spans kept in memory; later spans are counted as
// dropped.
const maxSpans = 1 << 16

// spanLog keeps a traced run's spans in memory and writes them out when
// the run ends.
type spanLog struct {
	mu      sync.Mutex
	base    time.Time
	spans   []span
	dropped int
	on      atomic.Bool
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) add(name string, id uint64, start, end time.Time) {
	s := span{Name: name, ID: id, Parent: -1,
		Start: start.Sub(l.base).Nanoseconds(), End: end.Sub(l.base).Nanoseconds()}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// middleware records a span named name around every request that
// carries a request id while the log is on.
func (l *spanLog) middleware(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" || !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		n, err := strconv.ParseUint(id, 10, 64)
		if err == nil {
			l.add(name, n, start, end)
		}
	})
}

// link makes every span named child the child of the span named parent
// that carries the same request id.
func (l *spanLog) link(child, parent string) {
	byID := map[uint64]int32{}
	for i, s := range l.spans {
		if s.Name == parent {
			byID[s.ID] = int32(i)
		}
	}
	for i := range l.spans {
		if l.spans[i].Name != child {
			continue
		}
		if p, ok := byID[l.spans[i].ID]; ok {
			l.spans[i].Parent = p
		}
	}
}

// selfTimes returns, in nanoseconds, the self time of every span named
// name: its duration less its children's. Children of one span never
// overlap here, so their durations are the part of the parent they
// cover; a child measured by a direct pass after the request stands for
// the same call made inside it.
func (l *spanLog) selfTimes(name string) []float64 {
	child := map[int32]int64{}
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-child[int32(i)]))
		}
	}
	return out
}

// durations returns the duration in nanoseconds of every span named name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write saves the spans as JSON lines under .bench_build/spans in the
// working directory. Failing to write them does not fail the run.
func (l *spanLog) write(workload string, seed int64) {
	dir := filepath.Join(".bench_build", "spans")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	err := os.MkdirAll(dir, 0o755)
	var f *os.File
	if err == nil {
		f, err = os.Create(path)
	}
	if err == nil {
		w := bufio.NewWriter(f)
		enc := json.NewEncoder(w)
		for i := range l.spans {
			if err = enc.Encode(&l.spans[i]); err != nil {
				break
			}
		}
		if err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		return
	}
	fmt.Printf("spans %d written to %s (dropped %d)\n", len(l.spans), path, l.dropped)
}

// closure checks that the self-time medians along a request's blocking
// path add up to the untraced median latency within tol. The two halves
// of a traced run meet different host conditions, so a mismatch is
// reported, not counted as a wrong output.
func closure(parts map[string]float64, untracedUS, tol float64) {
	sum := 0.0
	for _, v := range parts {
		sum += v
	}
	status := "ok"
	if !(untracedUS > 0 && relDiff(sum, untracedUS) <= tol) {
		status = "MISMATCH"
	}
	fmt.Printf("check closure %s: self-time medians sum to %.2f us vs untraced latency_p50 %.2f us (tolerance ±%.0f%%) %v\n",
		status, sum, untracedUS, 100*tol, parts)
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}
