package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonEndToEnd boots the daemon on an ephemeral port, exercises
// the dispatch/plan/metrics surface over real HTTP, then delivers
// SIGTERM and requires a clean drain — the in-process twin of the CI
// smoke job.
func TestDaemonEndToEnd(t *testing.T) {
	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-example", "-addr", "127.0.0.1:0", "-frac", "0.5",
			"-log-level", "error", "-drain", "5s",
		}, ready)
	}()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errCh:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}

	for i := 0; i < 10; i++ {
		resp, err := http.Post(base+"/v1/dispatch", "application/json", nil)
		if err != nil {
			t.Fatalf("dispatch: %v", err)
		}
		var dec struct {
			Station     int   `json:"station"`
			PlanVersion int64 `json:"plan_version"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
			t.Fatalf("dispatch decode: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || dec.Station < 0 || dec.Station >= 7 {
			t.Fatalf("dispatch: status %d station %d", resp.StatusCode, dec.Station)
		}
	}

	code, body := get("/v1/plan")
	var plan struct {
		Version *int64 `json:"version"`
	}
	if err := json.Unmarshal([]byte(body), &plan); code != http.StatusOK || err != nil || plan.Version == nil || *plan.Version != 1 {
		t.Fatalf("plan: %d %s (decode error %v), want version 1", code, body, err)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "bladed_dispatch_total 10") {
		t.Fatalf("metrics: %d\n%s", code, body)
	}

	// SIGTERM must drain and exit cleanly.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

// TestRunFlagValidation covers operator mistakes that must fail fast.
func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{},                                   // no cluster source
		{"-example", "-frac", "1.5"},         // frac out of range
		{"-example", "-log-level", "bogus"},  // bad log level
		{"-spec", "/does/not/exist.json"},    // missing file
		{"-builtin", "no-such-system:1"},     // unknown builtin
		{"-example", "-addr", "256.0.0.1:x"}, // unusable listen address
		{"-example", "-serialized"},          // retired flag: unknown
		{"-example", "-sparse"},              // retired flag: unknown
		{"-example", "-batch", "8"},          // retired flag: unknown
		{"-example", "-batch-linger", "1ms"}, // retired flag: unknown
	}
	for _, args := range cases {
		if err := run(args, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestLoadClusterSpecNames checks that server names from a spec file
// reach the daemon's dispatch responses.
func TestLoadClusterSpecNames(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/cluster.json"
	doc := `{"task_size": 1, "servers": [
		{"name": "alpha", "size": 2, "speed": 1.5, "special_rate": 0.5},
		{"name": "beta", "size": 4, "speed": 1.0, "special_rate": 0.5}
	]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	g, names, err := loadCluster(path, false, "", quiet)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 {
		t.Fatalf("N = %d", g.N())
	}
	want := []string{"alpha", "beta"}
	for i, n := range names {
		if n != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
	if _, names, err = loadCluster("", true, "", quiet); err != nil || names != nil {
		t.Fatalf("example cluster: names %v err %v", names, err)
	}
}
