package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// The RequestTimeout contract: the three places /v1 work can block —
// a request body that stalls, a backend-mode dispatch and the
// synchronous POST /v1/plan solve — each answer 503
// {"error":"request timed out"} by the deadline. The tests run the real
// Handler behind a loopback server, because a body read deadline needs
// a real connection.

// deadlineSlack bounds how long an answer may take: generous for loaded
// CI hosts and -race, yet far below the 10 s attempt timeout a missed
// dispatch deadline would wait out.
const deadlineSlack = 2 * time.Second

// startLoopback mounts s.Handler on a loopback server that is shut down
// before s is closed.
func startLoopback(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// timedPost posts body to url and returns the status, the body and how
// long the answer took. It gives up after deadlineSlack, so a missed
// deadline fails the test instead of hanging it.
func timedPost(t *testing.T, url, body string) (int, []byte, time.Duration) {
	t.Helper()
	c := &http.Client{Timeout: deadlineSlack}
	start := time.Now()
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, time.Since(start)
}

// requireTimedOut checks for the timeout answer: 503 with the body
// {"error":"request timed out"}.
func requireTimedOut(t *testing.T, code int, body []byte) {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("status %d, body %q is not an error object: %v", code, body, err)
	}
	if code != http.StatusServiceUnavailable || e.Error != "request timed out" {
		t.Fatalf("status %d error %q, want 503 %q", code, e.Error, "request timed out")
	}
}

func TestRequestDeadlineBackendDispatch(t *testing.T) {
	const deadline = 50 * time.Millisecond
	s := newTestServer(t, func(c *Config) {
		c.RequestTimeout = deadline
		// The attempt timeout outlasts the request deadline, so only the
		// request deadline can end the blocked attempt.
		c.Guard.AttemptTimeout = 10 * time.Second
		c.Backend = func(ctx context.Context, _ int) error {
			<-ctx.Done()
			return ctx.Err()
		}
	})
	ts := startLoopback(t, s)

	code, body, elapsed := timedPost(t, ts.URL+"/v1/dispatch", "")
	requireTimedOut(t, code, body)
	if elapsed < deadline {
		t.Fatalf("answered after %v, before the %v deadline", elapsed, deadline)
	}
}

func TestRequestDeadlinePostPlan(t *testing.T) {
	const deadline = 50 * time.Millisecond
	s := newTestServer(t, func(c *Config) { c.RequestTimeout = deadline })
	ts := startLoopback(t, s)

	// Holding the solve lock parks the synchronous re-solve behind it.
	// The cleanup releases it before the server closes if the test fails
	// while holding it.
	s.solveMu.Lock()
	unlock := sync.OnceFunc(s.solveMu.Unlock)
	t.Cleanup(unlock)

	target := 0.6 * s.group.MaxGenericRate()
	code, body, elapsed := timedPost(t, ts.URL+"/v1/plan", fmt.Sprintf(`{"lambda": %v}`, target))
	requireTimedOut(t, code, body)
	if elapsed < deadline {
		t.Fatalf("answered after %v, before the %v deadline", elapsed, deadline)
	}
	if v := s.Plan().Version; v != 1 {
		t.Fatalf("plan version %d published while the solve lock was held", v)
	}

	// The timed-out solve still runs once the lock frees, and publishes.
	unlock()
	p := waitPlanVersion(t, s, 2)
	if p.Lambda != target {
		t.Fatalf("published plan λ′ = %v, want the requested %v", p.Lambda, target)
	}
}

// TestRequestDeadlineSparesKeepAlive checks that the body read deadline
// ends with the read. A request without a body has the server's idle
// read on its connection running from the start; left in place, the
// deadline would time that read out while the request is still being
// answered, cancelling its context and that of every later request on
// the keep-alive connection.
func TestRequestDeadlineSparesKeepAlive(t *testing.T) {
	const deadline = 50 * time.Millisecond
	s := newTestServer(t, func(c *Config) { c.RequestTimeout = deadline })
	h := s.Handler()
	var mu sync.Mutex
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		// Finishing the answer outlasts the deadline, as behind a slow
		// middleware or a slow reader.
		time.Sleep(3 * deadline)
		mu.Lock()
		seen = append(seen, fmt.Sprintf("%s ctx err %v", r.RemoteAddr, r.Context().Err()))
		mu.Unlock()
	}))
	t.Cleanup(ts.Close)

	for i := 0; i < 2; i++ {
		// An empty POST /v1/plan re-solves at the current rate.
		if code, body, _ := timedPost(t, ts.URL+"/v1/plan", ""); code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, code, body)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := strings.Split(seen[0], " ")[0] + " ctx err <nil>"
	for i, got := range seen {
		if got != want {
			t.Fatalf("request %d saw %q, want %q (one connection, live contexts)", i, got, want)
		}
	}
}

// stallBody opens a connection to ts and sends a POST /v1/plan whose
// body declares 100 bytes and delivers 10, parking the handler in its
// body read.
func stallBody(t *testing.T, ts *httptest.Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := io.WriteString(conn, "POST /v1/plan HTTP/1.1\r\nHost: bladed\r\n"+
		"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"+`{"lambda":`); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestRequestDeadlineStalledBodyFreesSlot(t *testing.T) {
	const deadline = 100 * time.Millisecond
	s := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.RequestTimeout = deadline
	})
	ts := startLoopback(t, s)

	start := time.Now()
	stallBody(t, ts)
	for len(s.inflight) == 0 {
		if time.Since(start) > deadlineSlack {
			t.Fatal("the stalled request never took the in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}
	// Dispatches are refused while the stalled request holds the only
	// slot, and served once its deadline frees it.
	for {
		code, body, _ := timedPost(t, ts.URL+"/v1/dispatch", "")
		elapsed := time.Since(start)
		if code == http.StatusOK {
			if elapsed < deadline {
				t.Fatalf("slot freed after %v, before the %v deadline", elapsed, deadline)
			}
			return
		}
		if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "too many in-flight requests") {
			t.Fatalf("dispatch while the slot is held: %d %s", code, body)
		}
		if elapsed > deadline+deadlineSlack {
			t.Fatalf("slot still held %v after the stalled request began", elapsed)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRequestDeadlineStalledBodyAnswered checks that the stalled client
// itself hears the timeout: the body read fails at the deadline, so the
// 503 is written and the connection closed instead of waiting on the
// rest of the body.
func TestRequestDeadlineStalledBodyAnswered(t *testing.T) {
	const deadline = 100 * time.Millisecond
	s := newTestServer(t, func(c *Config) { c.RequestTimeout = deadline })
	ts := startLoopback(t, s)

	start := time.Now()
	conn := stallBody(t, ts)
	if err := conn.SetReadDeadline(time.Now().Add(deadline + deadlineSlack)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("stalled request got no answer: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	requireTimedOut(t, resp.StatusCode, body)
	if elapsed < deadline {
		t.Fatalf("answered after %v, before the %v deadline", elapsed, deadline)
	}
}
