package faultinject

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/failure"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Stations: 0}); err == nil {
		t.Error("zero stations accepted")
	}
	if _, err := New(Config{Stations: 2, BaseDelay: -time.Second}); err == nil {
		t.Error("negative base delay accepted")
	}
	if _, err := New(Config{Stations: 2, Schedules: make([]failure.Schedule, 3)}); err == nil {
		t.Error("schedule length mismatch accepted")
	}
	if _, err := New(Config{Stations: 2, Sizes: []int{1}}); err == nil {
		t.Error("sizes length mismatch accepted")
	}
	if _, err := New(Config{Stations: 2}); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

func TestSetClearGetValidation(t *testing.T) {
	in, err := New(Config{Stations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Set(5, Fault{}); err == nil {
		t.Error("out-of-range Set accepted")
	}
	if err := in.Set(0, Fault{ErrorRate: 1.5}); err == nil {
		t.Error("error rate > 1 accepted")
	}
	if err := in.Set(0, Fault{ExtraLatency: -time.Second}); err == nil {
		t.Error("negative latency accepted")
	}
	want := Fault{ErrorRate: 0.25, ExtraLatency: time.Millisecond}
	if err := in.Set(1, want); err != nil {
		t.Fatal(err)
	}
	if got := in.Get(1); got != want {
		t.Fatalf("Get = %+v, want %+v", got, want)
	}
	if err := in.Clear(1); err != nil {
		t.Fatal(err)
	}
	if got := in.Get(1); got != (Fault{}) {
		t.Fatalf("cleared station still faulted: %+v", got)
	}
	if err := in.Clear(9); err == nil {
		t.Error("out-of-range Clear accepted")
	}
}

func TestCallErrorRateIsSeededAndDeterministic(t *testing.T) {
	run := func(seed int64) (errs int, pattern []bool) {
		in, err := New(Config{Stations: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Set(0, Fault{ErrorRate: 0.3}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			err := in.Call(context.Background(), 0)
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error type: %v", err)
			}
			pattern = append(pattern, err != nil)
			if err != nil {
				errs++
			}
		}
		return errs, pattern
	}
	errs, p1 := run(7)
	if frac := float64(errs) / 2000; frac < 0.25 || frac > 0.35 {
		t.Fatalf("injected fraction %.3f, want ≈0.3", frac)
	}
	_, p2 := run(7)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same-seed runs diverged at call %d", i)
		}
	}
	// A different seed draws a different coin stream.
	other, err := New(Config{Stations: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Set(0, Fault{ErrorRate: 0.3}); err != nil {
		t.Fatal(err)
	}
	diverged := false
	for i := 0; i < 200 && !diverged; i++ {
		diverged = (other.Call(context.Background(), 0) != nil) != p1[i]
	}
	if !diverged {
		t.Error("different seeds produced identical error patterns")
	}
}

func TestCallBlackholeHangsUntilContext(t *testing.T) {
	in, err := New(Config{Stations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Set(0, Fault{Blackhole: true}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	callErr := in.Call(ctx, 0)
	if !errors.Is(callErr, context.DeadlineExceeded) {
		t.Fatalf("blackhole err = %v, want deadline exceeded", callErr)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("blackholed call returned before the context expired")
	}
	if in.Injected() != 1 || in.Calls() != 1 {
		t.Fatalf("injected/calls = %d/%d, want 1/1", in.Injected(), in.Calls())
	}
}

func TestScheduleDrivenFaults(t *testing.T) {
	clk := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return clk }
	// Station 0: 2 of 4 blades down from t=10, fully down from t=20,
	// repaired at t=30. Station 1: never fails.
	schedules := []failure.Schedule{
		{{Time: 10, Down: 2}, {Time: 20, Down: 4}, {Time: 30, Down: 0}},
		nil,
	}
	in, err := New(Config{
		Stations:  2,
		Now:       now,
		Schedules: schedules,
		Sizes:     []int{4, 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	if f := in.effective(0); f.ErrorRate != 0 || f.Blackhole {
		t.Fatalf("fault before first transition: %+v", f)
	}
	clk = clk.Add(15 * time.Second) // t=15: half down → error rate 0.5
	if f := in.effective(0); f.ErrorRate != 0.5 || f.Blackhole {
		t.Fatalf("fault at t=15: %+v, want error rate 0.5", f)
	}
	// A stronger live operator fault wins over the schedule fraction.
	if err := in.Set(0, Fault{ErrorRate: 0.9}); err != nil {
		t.Fatal(err)
	}
	if f := in.effective(0); f.ErrorRate != 0.9 {
		t.Fatalf("operator fault lost to schedule: %+v", f)
	}
	if err := in.Clear(0); err != nil {
		t.Fatal(err)
	}
	clk = clk.Add(10 * time.Second) // t=25: fully down → blackhole
	if f := in.effective(0); !f.Blackhole {
		t.Fatalf("fault at t=25: %+v, want blackhole", f)
	}
	clk = clk.Add(10 * time.Second) // t=35: repaired
	if f := in.effective(0); f.ErrorRate != 0 || f.Blackhole {
		t.Fatalf("fault after repair: %+v", f)
	}
	// The scheduled station's neighbour is untouched throughout.
	if f := in.effective(1); f != (Fault{}) {
		t.Fatalf("unscheduled station faulted: %+v", f)
	}
}

func TestAdminHandler(t *testing.T) {
	in, err := New(Config{Stations: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := in.AdminHandler()

	post := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/", bytes.NewBufferString(body)))
		return w
	}
	if w := post(`{"station": 1, "error_rate": 0.5, "extra_latency_ms": 2}`); w.Code != http.StatusAccepted {
		t.Fatalf("set status %d: %s", w.Code, w.Body)
	}
	if got := in.Get(1); got.ErrorRate != 0.5 || got.ExtraLatency != 2*time.Millisecond {
		t.Fatalf("admin set produced %+v", got)
	}
	if w := post(`{"station": 9, "blackhole": true}`); w.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range station status %d", w.Code)
	}
	if w := post(`{not json`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad body status %d", w.Code)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("get status %d", w.Code)
	}
	var views []faultView
	if err := json.Unmarshal(w.Body.Bytes(), &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[1].ErrorRate != 0.5 || views[1].ExtraLatencyMS != 2 {
		t.Fatalf("views = %+v", views)
	}

	if w := post(`{"station": 1, "reset": true}`); w.Code != http.StatusAccepted {
		t.Fatalf("reset status %d", w.Code)
	}
	if got := in.Get(1); got != (Fault{}) {
		t.Fatalf("reset left %+v", got)
	}
}

func TestExtraLatencyInflatesCalls(t *testing.T) {
	in, err := New(Config{Stations: 1, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Set(0, Fault{ExtraLatency: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := in.Call(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 21*time.Millisecond {
		t.Fatalf("inflated call took %v, want ≥ 21ms", d)
	}
}

// TestAdminHandlerLatencyRange pins the range check on
// extra_latency_ms: a latency a time.Duration holds is set, and one it
// cannot hold is refused with 400 naming the range, where converting
// it used to yield a negative duration.
func TestAdminHandlerLatencyRange(t *testing.T) {
	in, err := New(Config{Stations: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := in.AdminHandler()
	for _, tc := range []struct {
		ms     string
		status int
	}{
		{"9.2e12", http.StatusAccepted},
		{"9.3e12", http.StatusBadRequest},
		{"1e300", http.StatusBadRequest},
		{"-1", http.StatusBadRequest},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"station": 1, "extra_latency_ms": `+tc.ms+`}`)))
		if w.Code != tc.status {
			t.Errorf("extra_latency_ms %s: status %d, want %d: %s", tc.ms, w.Code, tc.status, w.Body)
			continue
		}
		if tc.status == http.StatusBadRequest {
			if !strings.Contains(w.Body.String(), "outside [0, 9.22337e+12)") {
				t.Errorf("extra_latency_ms %s: error %s does not name the range", tc.ms, w.Body)
			}
			if got := in.Get(1); got.ExtraLatency != 9.2e18 {
				t.Errorf("extra_latency_ms %s changed the fault to %+v", tc.ms, got)
			}
		} else if got := in.Get(1).ExtraLatency; got != 9.2e18 {
			t.Errorf("extra_latency_ms %s: set %v", tc.ms, got)
		}
	}
}

// FuzzAdminHandler drives the fault-injection hook with arbitrary
// methods and bodies. It must never panic and answer only 200, 202,
// 400 or 405; a 202 must echo exactly the fault Get then returns, and a
// 400 must leave every station's fault as it was.
func FuzzAdminHandler(f *testing.F) {
	f.Add("POST", []byte(`{"station": 1, "error_rate": 0.5, "extra_latency_ms": 12.5, "blackhole": true}`))
	f.Add("POST", []byte(`{"station": 2, "reset": true}`))
	f.Add("POST", []byte(`{"station": 0, "extra_latency_ms": 9.3e12}`))
	f.Add("POST", []byte(`{"station": 3, "extra_latency_ms": 1e300}`))
	f.Add("POST", []byte(`{"station": -1}`))
	f.Add("POST", []byte(`{"station": 1, "error_rate": 2}`))
	f.Add("POST", []byte(`not json`))
	f.Add("GET", []byte(nil))
	f.Add("DELETE", []byte(`{}`))
	f.Fuzz(func(t *testing.T, method string, body []byte) {
		const n = 4
		in, err := New(Config{Stations: n})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := in.Set(i, Fault{ErrorRate: 0.25 * float64(i), ExtraLatency: time.Duration(i) * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
		}
		before := make([]Fault, n)
		for i := range before {
			before[i] = in.Get(i)
		}
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		r.Method = method
		w := httptest.NewRecorder()
		in.AdminHandler().ServeHTTP(w, r)
		switch w.Code {
		case http.StatusOK:
		case http.StatusAccepted:
			var req faultRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("202 for a body that does not decode: %v", err)
			}
			var echoed Fault
			if err := json.Unmarshal(w.Body.Bytes(), &echoed); err != nil {
				t.Fatalf("202 body %q: %v", w.Body, err)
			}
			if got := in.Get(req.Station); got != echoed {
				t.Fatalf("202 echoed %+v, Get returns %+v", echoed, got)
			}
		case http.StatusBadRequest:
			for i := range before {
				if got := in.Get(i); got != before[i] {
					t.Fatalf("400 changed station %d from %+v to %+v", i, before[i], got)
				}
			}
		case http.StatusMethodNotAllowed:
		default:
			t.Fatalf("%q %q: status %d: %s", method, body, w.Code, w.Body)
		}
	})
}
