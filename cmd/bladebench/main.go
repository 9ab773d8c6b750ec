// Command bladebench is the perf-regression harness: it runs the
// repository's benchmark suite (or parses an existing `go test -bench`
// log), normalizes the results into a BENCH_<date>.json snapshot, and
// can diff two snapshots to flag regressions.
//
// Usage:
//
//	bladebench                             # run all benchmarks, write BENCH_<today>.json
//	bladebench -bench 'Table|Optimize'     # subset, by benchmark regexp
//	bladebench -benchtime 10x -out x.json  # control iteration count and output path
//	bladebench -input bench.log            # convert a saved log instead of running
//	bladebench -compare old.json new.json  # diff snapshots, non-zero exit on regression
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot is the serialized form of one benchmark run.
type Snapshot struct {
	Date      string      `json:"date"`
	Goos      string      `json:"goos,omitempty"`
	Goarch    string      `json:"goarch,omitempty"`
	CPU       string      `json:"cpu,omitempty"`
	Benchtime string      `json:"benchtime,omitempty"`
	Results   []Benchmark `json:"benchmarks"`
}

// Benchmark is one result line of `go test -bench -benchmem`.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

func main() {
	bench := flag.String("bench", ".", "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "", "go test -benchtime value (e.g. 10x, 2s); empty = default")
	pkg := flag.String("pkg", ".", "package pattern to benchmark")
	out := flag.String("out", "", "output JSON path; empty = BENCH_<today>.json")
	input := flag.String("input", "", "parse this saved benchmark log instead of running go test")
	compare := flag.Bool("compare", false, "compare two snapshot JSON files (old new); exit 1 on ns/op or allocs/op regression")
	threshold := flag.Float64("threshold", 1.10, "compare: flag benchmarks whose ns/op grew by more than this ratio")
	budgets := make(map[string]time.Duration)
	flag.Func("budget", "compare: absolute per-op budget as 'BenchmarkName=duration' (e.g. 'BenchmarkOptimizeN10kFCFS=1s'); repeatable; the benchmark must be present in the new snapshot and under budget",
		func(v string) error {
			name, dur, ok := strings.Cut(v, "=")
			if !ok || name == "" {
				return fmt.Errorf("want 'BenchmarkName=duration', got %q", v)
			}
			d, err := time.ParseDuration(dur)
			if err != nil {
				return err
			}
			if d <= 0 {
				return fmt.Errorf("budget %q must be positive", v)
			}
			budgets[name] = d
			return nil
		})
	flag.Parse()

	if err := run(*bench, *benchtime, *pkg, *out, *input, *compare, *threshold, budgets, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bladebench:", err)
		os.Exit(1)
	}
}

func run(bench, benchtime, pkg, out, input string, compare bool, threshold float64, budgets map[string]time.Duration, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs exactly two snapshot paths (old new)")
		}
		return compareSnapshots(args[0], args[1], threshold, budgets)
	}
	if len(budgets) > 0 {
		return fmt.Errorf("-budget only applies with -compare")
	}

	var raw io.Reader
	switch {
	case input != "":
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		raw = f
	default:
		cmdArgs := []string{"test", "-run", "^$", "-bench", bench, "-benchmem"}
		if benchtime != "" {
			cmdArgs = append(cmdArgs, "-benchtime", benchtime)
		}
		cmdArgs = append(cmdArgs, pkg)
		cmd := exec.Command("go", cmdArgs...)
		cmd.Stderr = os.Stderr
		outBytes, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("go %s: %w", strings.Join(cmdArgs, " "), err)
		}
		os.Stdout.Write(outBytes)
		raw = strings.NewReader(string(outBytes))
	}

	snap, err := Parse(raw)
	if err != nil {
		return err
	}
	snap.Benchtime = benchtime
	if len(snap.Results) == 0 {
		return fmt.Errorf("no benchmark results found")
	}
	if out == "" {
		out = fmt.Sprintf("BENCH_%s.json", snap.Date)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bladebench: wrote %d results to %s\n", len(snap.Results), out)
	return nil
}

// benchLine matches e.g.
//
//	BenchmarkTable1-4   500   2280000 ns/op   12345 B/op   67 allocs/op
//
// with the memory columns optional.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

// Parse reads `go test -bench` output into a snapshot, stamped with
// today's date.
func Parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Date: time.Now().Format("2006-01-02")}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %w", line, err)
		}
		b := Benchmark{Name: m[1], Iterations: iters}
		if b.NsPerOp, err = strconv.ParseFloat(m[3], 64); err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		if m[4] != "" {
			if b.BytesPerOp, err = strconv.ParseFloat(m[4], 64); err != nil {
				return nil, fmt.Errorf("bad B/op in %q: %w", line, err)
			}
		}
		if m[5] != "" {
			if b.AllocsPerOp, err = strconv.ParseFloat(m[5], 64); err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", line, err)
			}
		}
		snap.Results = append(snap.Results, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSnapshots prints a per-benchmark delta table and fails when
// any shared benchmark slowed down beyond the threshold ratio, or when
// a benchmark that was allocation-free in the old snapshot now
// allocates — going from 0 allocs/op to any allocation is a hot-path
// property violation, not a timing wobble, so it is gated absolutely
// rather than by ratio. A benchmark present only in the new snapshot is
// informational (a newly landed benchmark, not a regression), so
// growing the suite never requires regenerating old baselines by hand.
// A baseline benchmark missing from the new snapshot fails: a deleted
// or renamed benchmark, or a -bench pattern that no longer matches it,
// would otherwise drop out of the gate silently. budgets adds absolute
// per-op ceilings: each named benchmark must appear in the new snapshot
// and come in under its duration.
func compareSnapshots(oldPath, newPath string, threshold float64, budgets map[string]time.Duration) error {
	oldS, err := loadSnapshot(oldPath)
	if err != nil {
		return err
	}
	newS, err := loadSnapshot(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]Benchmark, len(oldS.Results))
	for _, b := range oldS.Results {
		oldBy[b.Name] = b
	}
	newBy := make(map[string]Benchmark, len(newS.Results))
	for _, b := range newS.Results {
		newBy[b.Name] = b
	}
	var regressed []string
	fmt.Printf("%-44s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	for _, nb := range newS.Results {
		ob, ok := oldBy[nb.Name]
		if !ok || ob.NsPerOp == 0 { //bladelint:allow floateq -- zero ns/op is the exact sentinel for a benchmark absent from the old run
			fmt.Printf("%-44s %14s %14.0f %8s  (new benchmark, no baseline)\n", nb.Name, "-", nb.NsPerOp, "-")
			continue
		}
		ratio := nb.NsPerOp / ob.NsPerOp
		mark := ""
		if ratio > threshold {
			mark = "  << REGRESSION"
			regressed = append(regressed, nb.Name)
		}
		// Allocs/op are exact integers reported by the testing package,
		// so > 0 (rather than a ratio) is the right test on both sides.
		if nb.AllocsPerOp > 0 && !(ob.AllocsPerOp > 0) {
			mark = fmt.Sprintf("  << ALLOC REGRESSION (0 -> %.0f allocs/op)", nb.AllocsPerOp)
			regressed = append(regressed, nb.Name+" (allocs)")
		}
		fmt.Printf("%-44s %14.0f %14.0f %7.2fx%s\n", nb.Name, ob.NsPerOp, nb.NsPerOp, ratio, mark)
	}
	for _, ob := range oldS.Results {
		if _, ok := newBy[ob.Name]; !ok {
			fmt.Printf("%-44s %14.0f %14s %8s  << MISSING from new snapshot\n", ob.Name, ob.NsPerOp, "-", "-")
			regressed = append(regressed, ob.Name+" (missing from new snapshot)")
		}
	}
	// Budget names are sorted so the report (and any failure message) is
	// deterministic regardless of map iteration order.
	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		budget := budgets[name]
		nb, ok := newBy[name]
		if !ok {
			fmt.Printf("%-44s budget %v  << MISSING from new snapshot\n", name, budget)
			regressed = append(regressed, name+" (missing, budget "+budget.String()+")")
			continue
		}
		mark := "within budget"
		if nb.NsPerOp > float64(budget.Nanoseconds()) {
			mark = "<< OVER BUDGET"
			regressed = append(regressed, fmt.Sprintf("%s (%.0f ns/op over %v budget)", name, nb.NsPerOp, budget))
		}
		fmt.Printf("%-44s %14.0f ns/op vs budget %v  %s\n", name, nb.NsPerOp, budget, mark)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark regression(s) (ns/op beyond %.2fx, new allocations, missing baselines, or budget violations): %s", len(regressed), threshold, strings.Join(regressed, ", "))
	}
	return nil
}
