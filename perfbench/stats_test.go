package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if got := minSamplesFor(0.99); got != 1000 {
		t.Errorf("minSamplesFor(0.99) = %d, want 1000", got)
	}
	if got := minSamplesFor(0.90); got != 100 {
		t.Errorf("minSamplesFor(0.90) = %d, want 100", got)
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reverse order: percentile must sort
		}
		return xs
	}
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v sampled=%v, want 990 sampled", v, ok)
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples has 9 beyond it but was reported as sampled")
	}

	// Under-sampled: the run says so, and the value is still the named
	// percentile, not a lower one.
	tm := summarize(seq(150), 0.99)
	if tm.sampled {
		t.Error("p99 of 150 samples reported as sampled")
	}
	if tm.upper != 149 {
		t.Errorf("under-sampled p99 of 1..150 = %v, want 149", tm.upper)
	}
	// Sampled in the whole run but not in every round: the run's
	// percentile.
	if tm = summarize(seq(1000), 0.99); !tm.sampled || tm.upper != 990 {
		t.Errorf("p99 of 1..1000 = %v sampled=%v, want 990 sampled", tm.upper, tm.sampled)
	}
	// Sampled in every round: the median of the rounds' percentiles.
	tm = summarize(seq(5000), 0.99)
	if !tm.sampled || tm.n != 5000 {
		t.Fatalf("p99 of 5000 samples: sampled=%v n=%d", tm.sampled, tm.n)
	}
	if tm.upper < 2900 || tm.upper > 3100 {
		t.Errorf("median of round p99s = %v, want the middle round's p99 (~2990)", tm.upper)
	}
}

func TestQuantileDiscountsOneDisturbedRound(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 1
		if i >= 400 {
			xs[i] = 100 // the last round is disturbed throughout
		}
	}
	if got, ok := quantile(xs, 0.5); got != 1 || !ok {
		t.Errorf("median over rounds = %v, want 1", got)
	}
}

func TestOpenLoopTimedFromScheduledSend(t *testing.T) {
	const service = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
	}))
	defer srv.Close()
	l := newLedger()
	c := newConn(l, nil)
	defer c.close()

	// Due 50ms ago: a stall before the send counts in the latency, and
	// the generator's lateness is reported.
	due := time.Now().Add(-50 * time.Millisecond)
	if o := c.do("read", http.MethodGet, srv.URL, nil, due); !o.ok() {
		t.Fatalf("request failed: %v", o.failure(srv.URL))
	}
	lat := l.samples("read")
	if len(lat) != 1 || lat[0] < 70 {
		t.Errorf("open-loop latency %v ms, want at least 50ms late + 20ms service", lat)
	}
	if len(l.late) != 1 || l.late[0] < 50 {
		t.Errorf("lateness %v ms, want at least 50", l.late)
	}

	// Closed loop: timed from the send; lateness is the turnaround since
	// the previous answer.
	c.closedLoop = true
	c.do("ingest", http.MethodPost, srv.URL, []byte("x"), time.Time{})
	lat = l.samples("ingest")
	if len(lat) != 1 || lat[0] < 20 || lat[0] >= 70 {
		t.Errorf("closed-loop latency %v ms, want the 20ms service time without the earlier lateness", lat)
	}
	if len(l.late) != 2 || l.late[1] < 0 || l.late[1] >= 50 {
		t.Errorf("closed-loop lateness %v ms, want the small turnaround", l.late)
	}
}

func TestFailureAccounting(t *testing.T) {
	codes := []int{http.StatusAccepted, http.StatusTooManyRequests, http.StatusConflict,
		http.StatusInternalServerError, http.StatusServiceUnavailable}
	var i atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(codes[i.Add(1)-1])
	}))
	l := newLedger()
	c := newConn(l, nil)
	defer c.close()
	for range codes {
		c.do("ingest", http.MethodPost, srv.URL, []byte("x"), time.Time{})
	}
	srv.Close()
	// A transport error: nothing listens any more.
	if o := c.do("ingest", http.MethodPost, srv.URL, []byte("x"), time.Time{}); o.ok() || o.err == nil {
		t.Fatalf("request to a closed server: %+v, want a transport error", o)
	}

	attempted, failed := l.counts()
	if attempted != 6 || failed != 5 {
		t.Errorf("attempted %d failed %d, want 6 and 5 (429, 409, 500, 503, transport)", attempted, failed)
	}
	if got := l.failedFrac(); got != 5.0/6 {
		t.Errorf("failed_frac = %v, want 5/6", got)
	}
	// A failure misses every latency limit.
	lat := l.samples("ingest")
	for j, v := range lat {
		if (j == 0) == math.IsInf(v, 1) {
			t.Errorf("request %d latency %v: only the 202 may have a finite latency", j, v)
		}
	}
	if tm := summarize(lat, 0.5); !math.IsInf(tm.p50, 1) {
		t.Errorf("median with 5 of 6 failed = %v, want +Inf", tm.p50)
	}
}
