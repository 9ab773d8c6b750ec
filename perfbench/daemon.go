package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// quietLogger drops the daemon's operational logs.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// daemon is a serve.Server mounted on a loopback listener with a
// keep-alive client: the deployment bladed runs, in one process.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
}

// startDaemon builds the server, mounts its handler (wrapped by wrap
// when non-nil) on a fresh loopback listener, and returns once the
// listener accepts connections.
func startDaemon(cfg serve.Config, conns int, wrap func(http.Handler) http.Handler) (*daemon, error) {
	cfg.Logger = quietLogger
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, nil
}

// stop shuts the listener and the server down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.served
	d.client.CloseIdleConnections()
	d.srv.Close()
}

// do sends one request and reads the whole response body. A non-zero
// reqID is sent in the span header.
func (d *daemon) do(method, path string, body []byte, reqID uint64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != 0 {
		req.Header.Set(requestIDHeader, strconv.FormatUint(reqID, 10))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("reading %s %s: %w", method, path, err)
	}
	return resp.StatusCode, out, nil
}

// counters scrapes GET /metrics and sums every series by metric name,
// labels dropped.
func (d *daemon) counters() (map[string]float64, error) {
	status, body, err := d.do(http.MethodGet, "/metrics", nil, 0)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseCounters(body), nil
}

func parseCounters(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// reportDaemonCounters records the daemon's own re-solve, breaker and
// rejection counters, read at run end.
func reportDaemonCounters(r *results, c map[string]float64) {
	r.layer("serve.kernel.resolves", c["bladed_resolve_total"], "bladed_resolve_total at run end")
	r.layer("serve.kernel.resolve_errors", c["bladed_resolve_errors_total"], "bladed_resolve_errors_total at run end")
	r.layer("serve.kernel.breaker_trips", c["bladed_breaker_trips_total"], "bladed_breaker_trips_total, all stations")
	r.layer("serve.kernel.rejected", c["bladed_rejected_total"], "bladed_rejected_total, all reasons")
}

// daemonCountersInProcess reads the daemon's /metrics through its
// handler, for workloads that drive it without a listener.
func daemonCountersInProcess(srv *serve.Server) map[string]float64 {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseCounters(rec.Body.Bytes())
}
