package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeSnapshot(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchOutput(t *testing.T) {
	log := `goos: linux
goarch: amd64
cpu: test
BenchmarkDispatchParallel-8   6137804   189.7 ns/op   0 B/op   0 allocs/op
BenchmarkOptimize-8   1200   912345 ns/op   2048 B/op   12 allocs/op
PASS
`
	snap, err := Parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(snap.Results))
	}
	b := snap.Results[0]
	if b.Name != "BenchmarkDispatchParallel" || b.Iterations != 6137804 {
		t.Errorf("first result = %+v", b)
	}
	if b.AllocsPerOp != 0 || snap.Results[1].AllocsPerOp != 12 {
		t.Errorf("allocs/op = %g, %g; want 0, 12", b.AllocsPerOp, snap.Results[1].AllocsPerOp)
	}
}

func TestCompareSnapshotsNsPerOpGate(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json",
		`{"date":"2026-08-06","benchmarks":[{"name":"BenchmarkDispatchParallel","iterations":100,"ns_per_op":190}]}`)

	ok := writeSnapshot(t, dir, "ok.json",
		`{"date":"2026-08-07","benchmarks":[{"name":"BenchmarkDispatchParallel","iterations":100,"ns_per_op":220}]}`)
	if err := compareSnapshots(old, ok, 1.25, nil); err != nil {
		t.Errorf("220 vs 190 at 1.25x threshold should pass, got %v", err)
	}

	slow := writeSnapshot(t, dir, "slow.json",
		`{"date":"2026-08-07","benchmarks":[{"name":"BenchmarkDispatchParallel","iterations":100,"ns_per_op":260}]}`)
	if err := compareSnapshots(old, slow, 1.25, nil); err == nil {
		t.Error("260 vs 190 at 1.25x threshold should fail")
	}
}

func TestCompareSnapshotsAllocGate(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json",
		`{"date":"2026-08-06","benchmarks":[{"name":"BenchmarkDispatchParallel","iterations":100,"ns_per_op":190,"allocs_per_op":0}]}`)

	// Faster but newly allocating: the alloc gate must fire even though
	// ns/op improved.
	alloc := writeSnapshot(t, dir, "alloc.json",
		`{"date":"2026-08-07","benchmarks":[{"name":"BenchmarkDispatchParallel","iterations":100,"ns_per_op":150,"allocs_per_op":1}]}`)
	err := compareSnapshots(old, alloc, 1.25, nil)
	if err == nil {
		t.Fatal("0 -> 1 allocs/op should fail the compare gate")
	}
	if !strings.Contains(err.Error(), "allocs") {
		t.Errorf("error should name the alloc regression, got %v", err)
	}

	// A benchmark that already allocated may keep allocating.
	oldAlloc := writeSnapshot(t, dir, "old-alloc.json",
		`{"date":"2026-08-06","benchmarks":[{"name":"BenchmarkOptimize","iterations":100,"ns_per_op":900,"allocs_per_op":12}]}`)
	moreAlloc := writeSnapshot(t, dir, "more-alloc.json",
		`{"date":"2026-08-07","benchmarks":[{"name":"BenchmarkOptimize","iterations":100,"ns_per_op":910,"allocs_per_op":14}]}`)
	if err := compareSnapshots(oldAlloc, moreAlloc, 1.25, nil); err != nil {
		t.Errorf("12 -> 14 allocs/op is not a 0->N regression, got %v", err)
	}
}

func TestCompareSnapshotsNewBenchmarkInformational(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json",
		`{"date":"2026-08-06","benchmarks":[{"name":"BenchmarkDispatchParallel","iterations":100,"ns_per_op":190}]}`)
	// The new snapshot adds a benchmark (even a slow, allocating one)
	// that the baseline has never seen: informational, not a regression.
	added := writeSnapshot(t, dir, "added.json",
		`{"date":"2026-08-07","benchmarks":[`+
			`{"name":"BenchmarkDispatchParallel","iterations":100,"ns_per_op":195},`+
			`{"name":"BenchmarkOptimizeN10kFCFS","iterations":3,"ns_per_op":6000000,"allocs_per_op":19}]}`)
	if err := compareSnapshots(old, added, 1.25, nil); err != nil {
		t.Errorf("a benchmark absent from the baseline must not fail the compare, got %v", err)
	}
}

func TestCompareSnapshotsMissingBaselineFails(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json",
		`{"date":"2026-08-06","benchmarks":[`+
			`{"name":"BenchmarkDispatchParallel","iterations":100,"ns_per_op":190},`+
			`{"name":"BenchmarkOptimizeN512Sparse","iterations":3,"ns_per_op":5000000}]}`)
	// The new run re-times only one of the two baseline benchmarks (a
	// deleted benchmark, or a -bench pattern that skips it): the other
	// must not drop out of the gate silently.
	partial := writeSnapshot(t, dir, "partial.json",
		`{"date":"2026-08-07","benchmarks":[{"name":"BenchmarkDispatchParallel","iterations":100,"ns_per_op":195}]}`)
	err := compareSnapshots(old, partial, 1.25, nil)
	if err == nil {
		t.Fatal("a baseline benchmark missing from the new snapshot should fail the compare")
	}
	if !strings.Contains(err.Error(), "BenchmarkOptimizeN512Sparse") {
		t.Errorf("error should name the missing benchmark, got %v", err)
	}
}

func TestCompareSnapshotsBudgetGate(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json",
		`{"date":"2026-08-06","benchmarks":[{"name":"BenchmarkDispatchParallel","iterations":100,"ns_per_op":190}]}`)
	within := writeSnapshot(t, dir, "within.json",
		`{"date":"2026-08-07","benchmarks":[`+
			`{"name":"BenchmarkDispatchParallel","iterations":100,"ns_per_op":190},`+
			`{"name":"BenchmarkOptimizeN10kFCFS","iterations":3,"ns_per_op":6000000}]}`)
	budget := map[string]time.Duration{"BenchmarkOptimizeN10kFCFS": time.Second}
	if err := compareSnapshots(old, within, 1.25, budget); err != nil {
		t.Errorf("6 ms/op against a 1 s budget should pass, got %v", err)
	}

	over := writeSnapshot(t, dir, "over.json",
		`{"date":"2026-08-07","benchmarks":[`+
			`{"name":"BenchmarkDispatchParallel","iterations":100,"ns_per_op":190},`+
			`{"name":"BenchmarkOptimizeN10kFCFS","iterations":1,"ns_per_op":1500000000}]}`)
	err := compareSnapshots(old, over, 1.25, budget)
	if err == nil {
		t.Fatal("1.5 s/op against a 1 s budget should fail")
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Errorf("error should name the budget violation, got %v", err)
	}

	// A budgeted benchmark missing from the new snapshot is a failure:
	// the gate exists to prove the benchmark ran and came in under time.
	if err := compareSnapshots(old, old, 1.25, budget); err == nil {
		t.Error("budgeted benchmark missing from the new snapshot should fail")
	}
}

func TestBudgetFlagParsing(t *testing.T) {
	// -budget outside -compare is a usage error.
	if err := run(".", "", ".", "", "", false, 1.1,
		map[string]time.Duration{"BenchmarkX": time.Second}, nil); err == nil {
		t.Error("-budget without -compare should fail")
	}
}
