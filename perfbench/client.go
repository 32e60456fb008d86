package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"
)

// conn is one keep-alive HTTP connection: a client whose transport may
// hold a single connection per host, used by one goroutine at a time.
// Every request it makes is recorded into the shared ledger.
type conn struct {
	c      *http.Client
	ledger *ledger
	trace  *tracer // nil: untraced
	buf    bytes.Buffer

	// closedLoop marks a closed-loop sender: its lateness is the gap
	// between the previous answer and the next send, the generator's
	// own turnaround.
	closedLoop bool
	lastEnd    time.Time
}

func newConn(l *ledger, tr *tracer) *conn {
	t := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{c: &http.Client{Transport: t, Timeout: 60 * time.Second}, ledger: l, trace: tr}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// outcome is one finished request.
type outcome struct {
	status int
	err    error
	body   []byte // valid until the conn's next request
}

// ok reports whether the request succeeded: a 2xx answer. A 429, 409,
// 5xx, any other status, or a transport error is a failure.
func (o outcome) ok() bool { return o.err == nil && o.status >= 200 && o.status < 300 }

// do sends one request and records it under route. due is when it was
// scheduled (open loop) or zero (closed loop: timed from the send).
func (c *conn) do(route, method, url string, body []byte, due time.Time) outcome {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return outcome{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	var wrote, first time.Time
	if c.trace != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { first = time.Now() },
		}))
	}
	start := time.Now()
	late := -1.0
	switch {
	case !due.IsZero():
		late = float64(start.Sub(due)) / 1e6
	case c.closedLoop && !c.lastEnd.IsZero():
		late = float64(start.Sub(c.lastEnd)) / 1e6
	}
	if due.IsZero() {
		due = start
	}
	resp, err := c.c.Do(req)
	var o outcome
	if err != nil {
		o.err = err
	} else {
		c.buf.Reset()
		_, o.err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
		o.body = c.buf.Bytes()
	}
	end := time.Now()
	c.lastEnd = end
	c.ledger.record(route, due, end, late, o.ok())
	if c.trace != nil && !wrote.IsZero() && !first.IsZero() {
		// The server may answer before the transport reports the write
		// done; the write then ends at the first response byte.
		if wrote.After(first) {
			wrote = first
		}
		id := c.trace.record("http."+route, 0, start, end)
		c.trace.recordChild("http.req_write", id, start, wrote)
		c.trace.recordChild("http.wait."+route, id, wrote, first)
		c.trace.recordChild("http.resp_read", id, first, end)
		c.trace.sample("http.ttfb."+route, float64(first.Sub(start))/1e3)
	}
	return o
}

// getJSON GETs url and decodes a 200 answer into out.
func (c *conn) getJSON(route, url string, out any) error {
	o := c.do(route, http.MethodGet, url, nil, time.Time{})
	if !o.ok() {
		return o.failure(url)
	}
	return json.Unmarshal(o.body, out)
}

// failure describes a failed request.
func (o outcome) failure(what string) error {
	if o.err != nil {
		return fmt.Errorf("%s: %w", what, o.err)
	}
	return fmt.Errorf("%s: status %d: %s", what, o.status, bytes.TrimSpace(o.body))
}

// ledger accounts for every request of a run: per-route latencies of
// the successful ones, generator lateness, and attempts and failures.
type ledger struct {
	mu        sync.Mutex
	latencies map[string][]float64 // ms, from due to response end
	late      []float64            // ms, send start minus due time (or previous answer)
	attempted int
	failed    int
}

func newLedger() *ledger { return &ledger{latencies: make(map[string][]float64)} }

// record notes one request. A failed request counts as missing every
// latency limit: its latency is recorded as +Inf. A negative late
// records no lateness sample.
func (l *ledger) record(route string, due, end time.Time, late float64, ok bool) {
	lat := float64(end.Sub(due)) / 1e6
	if !ok {
		lat = inf
	}
	l.mu.Lock()
	l.attempted++
	if !ok {
		l.failed++
	}
	l.latencies[route] = append(l.latencies[route], lat)
	if late >= 0 {
		l.late = append(l.late, late)
	}
	l.mu.Unlock()
}

// restart drops the latency and lateness samples taken so far, as at
// the end of a warm-up; the request counts stay.
func (l *ledger) restart() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.latencies)
	l.late = nil
}

// samples returns a copy of a route's latencies.
func (l *ledger) samples(route string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.latencies[route]...)
}

// counts returns requests attempted and failed.
func (l *ledger) counts() (attempted, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted, l.failed
}

// failedFrac is failed requests over attempted ones.
func (l *ledger) failedFrac() float64 {
	a, f := l.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// statsResponse is the part of GET /v1/stats the benchmark reads.
type statsResponse struct {
	IngestedTotal   int64 `json:"ingested_total"`
	QueueDepth      int   `json:"queue_depth"`
	BatchesRejected int64 `json:"batches_rejected"`
	BufPoolHits     int64 `json:"buf_pool_hits"`
	BufPoolMisses   int64 `json:"buf_pool_misses"`
	Cluster         *struct {
		PendingTallies int   `json:"pending_tallies"`
		SealedThrough  int   `json:"sealed_through"`
		Duplicates     int64 `json:"duplicates"`
	} `json:"cluster"`
}

// estimateResponse is the part of a /v1/estimate or /v1/seal answer
// the correctness gate compares.
type estimateResponse struct {
	Seq              int       `json:"seq"`
	Poisoned         []float64 `json:"poisoned"`
	Recovered        []float64 `json:"recovered"`
	Targets          []int     `json:"targets"`
	PartialKnowledge bool      `json:"partial_knowledge"`
}

// decodeEstimate decodes a /v1/estimate or /v1/seal body.
func decodeEstimate(body []byte) (*estimateResponse, error) {
	est := &estimateResponse{}
	if err := json.Unmarshal(body, est); err != nil {
		return nil, err
	}
	return est, nil
}

// ingestAck is the answer to POST /v1/reports.
type ingestAck struct {
	QueueDepth int `json:"queue_depth"`
}
