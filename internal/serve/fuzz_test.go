package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzHandlerBodies posts arbitrary bytes as the body of every /v1
// endpoint that reads one, on the paper's Example 1, through Handler.
// Whatever arrives, no handler may panic, the status must be one the
// endpoint documents, and the body must decode strictly into the
// endpoint's success shape (2xx) or into {"error": string}. A body in
// planStatus must also get that status from POST /v1/plan.
func FuzzHandlerBodies(f *testing.F) {
	planStatus := map[string]int{
		// A λ′ below the solver's residual tolerance used to be solved
		// to an all-zero allocation, which the picker refused with 500.
		`{"lambda": 4e-11}`: http.StatusOK,
	}
	for seed := range planStatus {
		f.Add([]byte(seed))
	}
	for _, seed := range []string{
		// TestHealthEndpointsTriggerReoptimization's malformed bodies.
		``, `{}`, `{"station": 1}`, `{"up": false}`, `{"station": 99, "up": false}`,
		// Latencies /v1/observe must refuse rather than drop.
		`{"station": 1, "outcome": "success", "latency_seconds": -1}`,
		`{"station": 1, "outcome": "success", "latency_seconds": 1e300}`,
		`{"count": 0}`, `{"count": 1e9}`,
		`{"lambda": -1}`, `{"lambda": 1e308}`,
		// A subnormal λ′ made the solver index an empty entry list.
		`{"lambda": 5e-324}`,
		// Well-formed bodies, so the success paths are in the corpus too.
		`{"station": 0, "up": false, "lambda": 20, "count": 8, "outcome": "error", "latency_seconds": 0.05}`,
		`{not json`, `null`, `[1, 2]`,
	} {
		f.Add([]byte(seed))
	}
	type recorded struct {
		Recorded *bool `json:"recorded"`
	}
	endpoints := []struct {
		path     string
		statuses []int // the first is the success status
		shape    func() any
	}{
		{"/v1/plan", []int{http.StatusOK, http.StatusBadRequest, http.StatusInternalServerError, http.StatusServiceUnavailable},
			func() any { return new(Plan) }},
		{"/v1/health", []int{http.StatusAccepted, http.StatusBadRequest},
			func() any { return new(StationHealth) }},
		{"/v1/observe", []int{http.StatusAccepted, http.StatusBadRequest},
			func() any { return new(recorded) }},
		{"/v1/dispatch/batch", []int{http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable},
			func() any { return new(BatchDispatchResponse) }},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := newTestServer(t, nil).Handler()
		for _, ep := range endpoints {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
			documented := false
			for _, code := range ep.statuses {
				documented = documented || w.Code == code
			}
			if !documented {
				t.Fatalf("POST %s %q: undocumented status %d: %s", ep.path, body, w.Code, w.Body)
			}
			if want, ok := planStatus[string(body)]; ok && ep.path == "/v1/plan" && w.Code != want {
				t.Fatalf("POST %s %q: status %d, want %d: %s", ep.path, body, w.Code, want, w.Body)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("POST %s %q: content type %q", ep.path, body, ct)
			}
			dec := json.NewDecoder(bytes.NewReader(w.Body.Bytes()))
			dec.DisallowUnknownFields()
			if w.Code == ep.statuses[0] {
				v := ep.shape()
				if err := dec.Decode(v); err != nil {
					t.Fatalf("POST %s %q: %d body %s does not decode as %T: %v", ep.path, body, w.Code, w.Body, v, err)
				}
				if r, ok := v.(*recorded); ok && (r.Recorded == nil || !*r.Recorded) {
					t.Fatalf("POST %s %q: 202 without \"recorded\": true: %s", ep.path, body, w.Body)
				}
				continue
			}
			var e struct {
				Error *string `json:"error"`
			}
			if err := dec.Decode(&e); err != nil || e.Error == nil || *e.Error == "" {
				t.Fatalf("POST %s %q: %d body %s is not an error object (%v)", ep.path, body, w.Code, w.Body, err)
			}
		}
	})
}
