package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/queueing"
)

// encodingJSON is the oracle for the appended bodies: what the handlers
// wrote through json.Encoder before, trailing newline included.
func encodingJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkBody runs fill through writeBody and requires the oracle's
// bytes for v, or, when the oracle cannot encode v, a 500 error body.
func checkBody(t *testing.T, label string, v any, fill func([]byte, *bodyEncoder) []byte) {
	t.Helper()
	want, wantErr := encodingJSON(v)
	w := httptest.NewRecorder()
	writeBody(w, http.StatusOK, fill)
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: content type %q", label, ct)
	}
	if wantErr != nil {
		var e struct{ Error string }
		if w.Code != http.StatusInternalServerError || json.Unmarshal(w.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Fatalf("%s: encoding/json fails (%v) but the appender answered %d %s", label, wantErr, w.Code, w.Body)
		}
		return
	}
	if w.Code != http.StatusOK {
		t.Fatalf("%s: status %d, want 200: %s", label, w.Code, w.Body)
	}
	if got := w.Body.Bytes(); !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-40)
		t.Fatalf("%s: bodies differ at byte %d:\n appended %q\n encoding/json %q",
			label, i, got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
	}
}

func checkPlanBody(t *testing.T, label string, p *Plan) {
	t.Helper()
	checkBody(t, label, p, p.appendJSON)
}

func checkHealthBody(t *testing.T, label string, hs *HealthState) {
	t.Helper()
	checkBody(t, label, hs, hs.appendJSON)
}

// filler sets every exported field of a struct, recursing through
// slices and nested structs, so that a field added later to Plan,
// HealthState or StationHealth reaches the byte-identity tests without
// an edit here. A field of a kind it cannot fill fails the test.
type filler struct {
	t      testing.TB
	floats []float64 // cycled through every float field and element
	strs   []string  // cycled through every string field
	n      int       // length of every slice
	k      int
}

var timeType = reflect.TypeOf(time.Time{})

func (f *filler) fill(ptr any) {
	f.value(reflect.ValueOf(ptr).Elem(), reflect.TypeOf(ptr).Elem().Name())
}

func (f *filler) value(v reflect.Value, name string) {
	f.k++
	if v.Type() == timeType {
		zone := time.FixedZone("", (f.k%3-1)*5400)
		v.Set(reflect.ValueOf(time.Unix(1_700_000_000+int64(f.k), int64(f.k)*1_000_001).In(zone)))
		return
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(f.k))
	case reflect.Float64:
		v.SetFloat(f.floats[f.k%len(f.floats)])
	case reflect.Bool:
		v.SetBool(f.k%4 != 0)
	case reflect.String:
		v.SetString(f.strs[f.k%len(f.strs)])
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), f.n, f.n)
		for i := 0; i < f.n; i++ {
			f.value(s.Index(i), name)
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if sf := v.Type().Field(i); sf.IsExported() {
				f.value(v.Field(i), name+"."+sf.Name)
			}
		}
	default:
		f.t.Fatalf("%s: no filler for a field of kind %v; teach the filler and the body encoder", name, v.Kind())
	}
}

// bodyFloats are ordinary values and the edges of encoding/json's
// number format: −0, the subnormals, and both sides of 1e-6 and 1e21,
// where it switches between 'f' and 'e' forms.
var bodyFloats = []float64{
	0.25, 1.0 / 3, 7, -2.5, 123456789.125, math.Copysign(0, -1), 0,
	5e-324, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64,
	1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1.5e-10, 1e20,
	1e21, math.Nextafter(1e21, 0), -1e21, 1.2345e22,
}

// bodyStrings cover what encoding/json escapes: HTML characters,
// invalid UTF-8, U+2028/U+2029, control bytes, quotes and backslashes.
var bodyStrings = []string{
	"jsq2", "<a&b>", "blade-\xff\xfe", "line\u2028sep\u2029", "tab\there", `q"uote\`, "ünïcode", "",
}

func TestPlanBodyMatchesEncodingJSON(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		for shift := range bodyFloats {
			f := &filler{t: t, floats: append(bodyFloats[shift:], bodyFloats[:shift]...), strs: bodyStrings, n: n, k: shift}
			var p Plan
			f.fill(&p)
			checkPlanBody(t, fmt.Sprintf("filled n=%d shift=%d", n, shift), &p)
		}
	}
	checkPlanBody(t, "zero", &Plan{})
	checkPlanBody(t, "empty slices", &Plan{Rates: []float64{}, Utilizations: []float64{}, Up: []bool{}, Ramp: []float64{}})
	checkPlanBody(t, "nil up and ramp", &Plan{Rates: []float64{1, 0}, Utilizations: []float64{0.5, 0}, Policy: "<a&b>"})

	checkPlanBody(t, "10k fleet", fleetPlan(t))
}

// fleetPlan is the plan a 10k-station operator re-plan answers with:
// the 56-class signature fleet, one station down and one ramping back
// in, under JSQ(2).
func fleetPlan(t *testing.T) *Plan {
	t.Helper()
	const n = 10000
	sizes := make([]int, n)
	speeds := make([]float64, n)
	for i := range sizes {
		sizes[i] = 2 + 2*(i%8)
		speeds[i] = 1.7 - 0.1*float64(i%7)
	}
	g, err := model.PaperGroup(sizes, speeds, 1.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	up := make([]bool, n)
	ramp := make([]float64, n)
	for i := range up {
		up[i], ramp[i] = true, 1
	}
	up[4321] = false
	ramp[17] = 0.25
	opts := core.Options{Discipline: queueing.FCFS}
	fleet := mustFleet(t, g)
	p, err := buildPlan(fleet, 0.5*g.MaxGenericRate(), mustTally(t, fleet, up), opts, 7, time.Unix(1_700_000_000, 0), ramp, 2, newDepthSet(n))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlanBodyFormatsEachFloatOnce checks the memo on the body it
// serves: each distinct float of a 10k-station plan is formatted once,
// where a direct-mapped memo re-formatted values that collided. A float
// is formatted again only after its set overflowed and evicted it, and
// an overflowed set holds fewer values than map to it, so every
// distinct float still in the memo after the body means none was.
func TestPlanBodyFormatsEachFloatOnce(t *testing.T) {
	p := fleetPlan(t)
	distinct := map[uint64]bool{}
	for _, fs := range [][]float64{
		{p.Lambda, p.Phi, p.AvgResponseTime, p.Capacity, p.Admitted, p.Shed}, p.Rates, p.Utilizations, p.Ramp,
	} {
		for _, f := range fs {
			distinct[math.Float64bits(f)] = true
		}
	}
	enc := new(bodyEncoder)
	p.appendJSON(nil, enc)
	if enc.err != nil {
		t.Fatal(enc.err)
	}
	for bits := range distinct {
		s := memoSetOf(bits)
		if !slices.Contains(enc.memo[s].bits[:enc.fill[s].used], bits) {
			t.Errorf("%v was evicted from the memo; %d distinct floats in the body", math.Float64frombits(bits), len(distinct))
		}
	}
}

func TestHealthBodyMatchesEncodingJSON(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		for shift := range bodyFloats {
			f := &filler{t: t, floats: append(bodyFloats[shift:], bodyFloats[:shift]...), strs: bodyStrings, n: n, k: shift}
			var hs HealthState
			f.fill(&hs)
			checkHealthBody(t, fmt.Sprintf("filled n=%d shift=%d", n, shift), &hs)
		}
	}
	checkHealthBody(t, "zero", &HealthState{})
	checkHealthBody(t, "omitempty", &HealthState{
		Up:       []bool{},
		Stations: []StationHealth{{Breaker: "closed", RampFactor: math.Copysign(0, -1)}, {Station: 1, Breaker: "open"}},
	})
}

// TestHandlerBodiesMatchEncodingJSON checks the bodies as served: GET
// and POST /v1/plan and /v1/health, on a daemon whose station names
// need escaping, against encoding/json over the same plan and health
// view. The clock is fake, so the health view does not move between
// the request and the oracle.
func TestHandlerBodiesMatchEncodingJSON(t *testing.T) {
	clk := newFakeClock()
	names := []string{"<a&b>", "blade-\xff", "line\u2028sep", "", "plain", `q"uote`, "ünïcode"}
	s := newBreakerTestServer(t, clk, func(c *Config) { c.Names = names })
	tripStation(t, s, clk, 2, 12)
	waitPlanVersion(t, s, 2) // the re-solve the trip forces
	h := s.Handler()
	for _, tc := range []struct {
		method, path, body string
		status             int
		oracle             func() any
	}{
		{http.MethodGet, "/v1/plan", "", http.StatusOK, func() any { return s.Plan() }},
		{http.MethodPost, "/v1/plan", `{"lambda": 20}`, http.StatusOK, func() any { return s.Plan() }},
		{http.MethodGet, "/v1/health", "", http.StatusOK, func() any { return s.healthState() }},
		{http.MethodPost, "/v1/health", `{"station": 5, "up": false}`, http.StatusAccepted, func() any { return s.healthState() }},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(tc.method, tc.path, bytes.NewReader([]byte(tc.body))))
		if w.Code != tc.status {
			t.Fatalf("%s %s: status %d, want %d: %s", tc.method, tc.path, w.Code, tc.status, w.Body)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: content type %q", tc.method, tc.path, ct)
		}
		want, err := encodingJSON(tc.oracle())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("%s %s:\n served        %s\n encoding/json %s", tc.method, tc.path, w.Body, want)
		}
	}
}

// TestPlanEncodingErrorAnswers500 pins the case the appender changes:
// a plan encoding/json cannot encode (T′ = NaN here) is answered with
// 500 and an error object, where json.Encoder after the 200 header left
// an empty body.
func TestPlanEncodingErrorAnswers500(t *testing.T) {
	s := newTestServer(t, nil)
	bad := *s.Plan()
	bad.AvgResponseTime = math.NaN()
	s.plan.Store(&bad)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/plan", nil))
	var e struct{ Error string }
	if w.Code != http.StatusInternalServerError || json.Unmarshal(w.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("GET /v1/plan with T′ = NaN: %d %q, want 500 with an error object", w.Code, w.Body)
	}
}

// FuzzBodyEncoders feeds arbitrary float bits into every float field
// and slice element of Plan and HealthState, and an arbitrary string
// into every string field: the appended bodies must match encoding/json
// byte for byte, or both must fail.
func FuzzBodyEncoders(f *testing.F) {
	bits := []uint64{
		math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		1 << 63, 1, 0x000fffffffffffff, 0x0010000000000000,
	}
	for _, v := range bodyFloats {
		bits = append(bits, math.Float64bits(v))
	}
	for i, b := range bits {
		f.Add(b, bits[(i+1)%len(bits)], bits[(i+5)%len(bits)], bodyStrings[i%len(bodyStrings)], uint8(i%4))
	}
	f.Fuzz(func(t *testing.T, a, b, c uint64, s string, n uint8) {
		fl := &filler{
			t:      t,
			floats: []float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)},
			strs:   []string{s, "closed"},
			n:      int(n % 5),
		}
		var p Plan
		fl.fill(&p)
		checkPlanBody(t, "plan", &p)
		var hs HealthState
		fl.fill(&hs)
		checkHealthBody(t, "health", &hs)
	})
}

// TestBodyStressConcurrentRequests serves the plan and health bodies
// from several goroutines at once, so pooled encoders are handed from
// one request to the next under the race detector. With the clock fake
// and no re-solve pending, every body must equal the oracle's.
func TestBodyStressConcurrentRequests(t *testing.T) {
	clk := newFakeClock()
	s := newBreakerTestServer(t, clk, func(c *Config) { c.Names = []string{"a", "<b>", "c", "d", "e", "f", "g"} })
	h := s.Handler()
	want := map[string][]byte{}
	for path, v := range map[string]any{"/v1/plan": s.Plan(), "/v1/health": s.healthState()} {
		body, err := encodingJSON(v)
		if err != nil {
			t.Fatal(err)
		}
		want[path] = body
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			path := "/v1/plan"
			if g%2 == 1 {
				path = "/v1/health"
			}
			for i := 0; i < 200; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
				if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want[path]) {
					t.Errorf("GET %s: %d %s, want %s", path, w.Code, w.Body, want[path])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// healthState is the oracle of the served health bodies: the view
// Server.appendHealth streams, built as a value from the same reads.
func (s *Server) healthState() HealthState {
	up, brk := s.healthView()
	rate, warm := s.Estimate()
	now := s.now()
	hs := HealthState{Up: up, Estimate: rate, Warm: warm, Stations: make([]StationHealth, len(up))}
	for i := range up {
		hs.Stations[i] = s.stationHealth(i, up[i], brk[i], now)
	}
	return hs
}

// TestHealthBlockIsOneRead pins that a health body reports one read of
// each station's breaker: while another goroutine flips breakers open
// and closed, the body's up vector agrees with every block's up, and no
// block says up with a breaker that is not closed or pinned.
func TestHealthBlockIsOneRead(t *testing.T) {
	const n = 400
	sizes, speeds := make([]int, n), make([]float64, n)
	for i := range sizes {
		sizes[i] = 2 + 2*(i%8)
		speeds[i] = 1.7 - 0.1*float64(i%7)
	}
	g, err := model.PaperGroup(sizes, speeds, 1.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Group: g, Lambda: 0.3 * g.MaxGenericRate(),
		Opts:   core.Options{Discipline: queueing.FCFS},
		Window: time.Hour, MinResolveInterval: time.Hour,
		Breaker: BreakerConfig{ScanInterval: time.Hour}, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			b := &s.breakers.stations[k%n]
			if b.state.Load() == breakerClosed {
				s.breakers.setState(b, breakerOpen)
			} else {
				s.breakers.setState(b, breakerClosed)
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for r := 0; r < 100; r++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
		var hs HealthState
		if err := json.Unmarshal(w.Body.Bytes(), &hs); err != nil {
			t.Fatal(err)
		}
		for i, st := range hs.Stations {
			if st.Up != hs.Up[i] || st.Up && (st.Breaker != "closed" || st.OperatorPinned) {
				t.Fatalf("request %d station %d: body up %v, block up %v breaker %q pinned %v",
					r, i, hs.Up[i], st.Up, st.Breaker, st.OperatorPinned)
			}
		}
	}
}
