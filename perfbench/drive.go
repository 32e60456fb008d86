package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// driveOut is what one timed phase against live servers observed.
type driveOut struct {
	led    *ledger
	served []uint64 // digest of the served estimate per sealed epoch
	reads  *readLog

	sent      int64         // reports (users, for partials) acknowledged
	ingested  int64         // /v1/stats ingested_total after the last seal
	warmSent  int64         // reports (users) sent during the warm-up
	warmEp    int           // epochs sealed during the warm-up
	active    time.Duration // timed phase wall time, less verification pauses
	sealMs    []float64     // seal POST until the epoch's estimate is durably served
	cpuS      float64       // server CPU over the timed phase
	queue     []float64     // ingest queue depth after each accepted batch
	rejected  int64
	poolHits  int64
	poolGets  int64
	pending   []float64 // frontend tallies awaiting the root, sampled per seal
	dups      int64     // root-side duplicate tallies
	tallies   int       // tallies the frontend sealed (and pushed)
	exhausted bool      // inputs ran out before the deadline
}

// timedEpochs is how many epochs the timed phase sealed.
func (o *driveOut) timedEpochs() int { return len(o.served) - o.warmEp }

// endWarmup closes the warm-up: the samples taken so far are dropped,
// and the timed phase starts counting reports, epochs and server CPU.
func (o *driveOut) endWarmup(ss []*server) (cpu0 float64, start time.Time, err error) {
	o.led.restart()
	o.sealMs, o.queue, o.pending = nil, nil, nil
	o.warmSent, o.warmEp = o.sent, len(o.served)
	cpu0, err = serversCPU(ss)
	return cpu0, time.Now(), err
}

// readLog keeps one copy of every distinct estimate body served to a
// read, by route, for checking after the run.
type readLog struct {
	seed   maphash.Seed
	mu     sync.Mutex
	bodies map[uint64]readBody
}

type readBody struct {
	window bool
	body   []byte
}

func newReadLog() *readLog {
	return &readLog{seed: maphash.MakeSeed(), bodies: make(map[uint64]readBody)}
}

func (l *readLog) add(window bool, body []byte) {
	h := maphash.Bytes(l.seed, body)
	if window {
		h ^= 1
	}
	l.mu.Lock()
	if _, ok := l.bodies[h]; !ok {
		l.bodies[h] = readBody{window: window, body: bytes.Clone(body)}
	}
	l.mu.Unlock()
}

// check decodes every distinct read body and holds it to the replay:
// a plain read must be the seal estimate of its epoch, a ?window=k read
// the k-epoch estimate right after that seal.
func (l *readLog) check(exp *expected) error {
	for _, rb := range l.bodies {
		est, err := decodeEstimate(rb.body)
		if err != nil {
			return fmt.Errorf("decoding a served read: %w", err)
		}
		want := exp.sealed
		if rb.window {
			want = exp.window
		}
		if est.Seq < 0 || est.Seq >= len(want) {
			return fmt.Errorf("a read served epoch %d, replay sealed %d", est.Seq, len(want))
		}
		if est.digest() != want[est.Seq] {
			return fmt.Errorf("read (window=%v) of epoch %d differs from the in-process replay", rb.window, est.Seq)
		}
	}
	return nil
}

// postRetry posts body until the server accepts it, counting every
// refused attempt as a failure. It gives up after 200 refusals.
func postRetry(c *conn, route, url string, body []byte) (outcome, error) {
	for try := 0; ; try++ {
		o := c.do(route, http.MethodPost, url, body, time.Time{})
		if o.ok() {
			return o, nil
		}
		if try >= 200 {
			return o, o.failure(url)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitIngested polls /v1/stats until every sent report is folded.
func waitIngested(c *conn, s *server, want int64) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st statsResponse
		if err := c.getJSON("stats", s.url()+"/v1/stats", &st); err != nil {
			return err
		}
		if st.IngestedTotal == want && st.QueueDepth == 0 {
			return nil
		}
		if st.IngestedTotal > want {
			return fmt.Errorf("server ingested %d reports, %d were sent", st.IngestedTotal, want)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server ingested %d of %d reports after 60s", st.IngestedTotal, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// sealSingle POSTs /v1/seal on a single node and returns the served
// estimate's digest; the response is the estimate, durable once sent.
func sealSingle(c *conn, s *server, out *driveOut) error {
	t0 := time.Now()
	o := c.do("seal", http.MethodPost, s.url()+"/v1/seal", nil, time.Time{})
	out.sealMs = append(out.sealMs, float64(time.Since(t0))/1e6)
	if !o.ok() {
		return o.failure("POST /v1/seal")
	}
	est, err := decodeEstimate(o.body)
	if err != nil {
		return fmt.Errorf("decoding seal response: %w", err)
	}
	if est.Seq != len(out.served) {
		return fmt.Errorf("seal returned epoch %d, want %d", est.Seq, len(out.served))
	}
	out.served = append(out.served, est.digest())
	return nil
}

// driveIngest runs report-ingest: warm epochs untimed, then the timed
// phase for the given time. Per epoch, two closed-loop senders post the
// epoch's frames, then the coordinator waits until /v1/stats shows every
// report folded and seals.
func driveIngest(s *server, in *inputs, warm int, seconds time.Duration, tr *tracer) (*driveOut, error) {
	out := &driveOut{led: newLedger(), reads: newReadLog()}
	cs := make([]*conn, ingestConns)
	for i := range cs {
		cs[i] = newConn(out.led, tr)
		cs[i].closedLoop = true
		defer cs[i].close()
	}
	url := s.url() + "/v1/reports"
	var qmu sync.Mutex
	var cpu0 float64
	var start time.Time
	deadline := time.Now().Add(time.Hour) // set when the warm-up ends
	for e := 0; time.Now().Before(deadline); e++ {
		if e == warm {
			var err error
			if cpu0, start, err = out.endWarmup([]*server{s}); err != nil {
				return nil, err
			}
			deadline = start.Add(seconds)
		}
		if e == len(in.epochs) {
			out.exhausted = true
			break
		}
		frames := in.epochs[e].frames
		for _, c := range cs {
			c.lastEnd = time.Time{} // turnaround counts within an epoch's sends
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, len(cs))
		for i, c := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var depths []float64
				for {
					j := int(next.Add(1)) - 1
					if j >= len(frames) {
						break
					}
					o, err := postRetry(c, "ingest", url, frames[j])
					if err != nil {
						errs[i] = err
						return
					}
					var ack ingestAck
					if err := json.Unmarshal(o.body, &ack); err != nil {
						errs[i] = fmt.Errorf("decoding ingest ack: %w", err)
						return
					}
					depths = append(depths, float64(ack.QueueDepth))
				}
				qmu.Lock()
				out.queue = append(out.queue, depths...)
				qmu.Unlock()
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		out.sent += in.epochs[e].reports
		if err := waitIngested(cs[0], s, out.sent); err != nil {
			return nil, err
		}
		if err := sealSingle(cs[0], s, out); err != nil {
			return nil, err
		}
		// The new estimate is read back, plain and ?window=k alternately,
		// closed loop on the coordinator's connection.
		for i := 0; i < readsPerSeal; i++ {
			if err := readOnce(cs[0], s, i%2 == 1, out.reads); err != nil {
				return nil, err
			}
		}
	}
	out.active = time.Since(start)
	return out, finishSingle(cs[0], s, out, cpu0)
}

// readsPerSeal is how many reads follow each report-ingest seal: enough
// for read_ms_p99 to have ten samples beyond it in each round.
const readsPerSeal = 8

// readOnce GETs one estimate (window=true: ?window=readWindow) and logs
// the body for checking.
func readOnce(c *conn, s *server, window bool, log *readLog) error {
	url := s.url() + "/v1/estimate"
	if window {
		url += fmt.Sprintf("?window=%d", readWindow)
	}
	o := c.do("read", http.MethodGet, url, nil, time.Time{})
	if !o.ok() {
		return o.failure("GET " + url)
	}
	log.add(window, o.body)
	return nil
}

// finishSingle reads the post-run counters and CPU of a single node.
func finishSingle(c *conn, s *server, out *driveOut, cpu0 float64) error {
	cpu1, err := serversCPU([]*server{s})
	if err != nil {
		return err
	}
	out.cpuS = cpu1 - cpu0
	var st statsResponse
	if err := c.getJSON("stats", s.url()+"/v1/stats", &st); err != nil {
		return err
	}
	out.ingested = st.IngestedTotal
	out.rejected = st.BatchesRejected
	out.poolHits = st.BufPoolHits
	out.poolGets = st.BufPoolHits + st.BufPoolMisses
	return nil
}

// driveCluster runs partial-cluster: warm epochs untimed, then the timed
// phase, a fixed number of epochs. Per epoch, the epoch's partials go
// closed loop to the frontend, the frontend seals, and the epoch counts
// as sealed once the root's durable watermark (cluster.sealed_through)
// passes it; the root's estimate is then read and checked.
func driveCluster(root, fe *server, in *inputs, warm, epochs int, tr *tracer) (*driveOut, error) {
	if warm+epochs > len(in.epochs) {
		return nil, fmt.Errorf("%d epochs asked for, the schedule has %d", warm+epochs, len(in.epochs))
	}
	out := &driveOut{led: newLedger(), reads: newReadLog()}
	cf, cr := newConn(out.led, tr), newConn(out.led, tr)
	cf.closedLoop = true
	defer cf.close()
	defer cr.close()
	ss := []*server{root, fe}
	var cpu0 float64
	var start time.Time
	var verify time.Duration
	for e := 0; e < warm+epochs; e++ {
		if e == warm {
			var err error
			if cpu0, start, err = out.endWarmup(ss); err != nil {
				return nil, err
			}
			verify = 0
		}
		cf.lastEnd = time.Time{} // turnaround counts within an epoch's sends
		for _, f := range in.epochs[e].frames {
			if _, err := postRetry(cf, "ingest", fe.url()+"/v1/partial", f); err != nil {
				return nil, err
			}
		}
		out.sent += in.epochs[e].reports
		t0 := time.Now()
		o := cf.do("seal", http.MethodPost, fe.url()+"/v1/seal", nil, time.Time{})
		if !o.ok() {
			return nil, o.failure("POST /v1/seal")
		}
		out.tallies++
		var st statsResponse
		if err := cf.getJSON("stats", fe.url()+"/v1/stats", &st); err != nil {
			return nil, err
		}
		if st.Cluster != nil {
			out.pending = append(out.pending, float64(st.Cluster.PendingTallies))
		}
		for {
			if err := cr.getJSON("stats", root.url()+"/v1/stats", &st); err != nil {
				return nil, err
			}
			if st.Cluster != nil && st.Cluster.SealedThrough > e {
				break
			}
			if time.Since(t0) > 60*time.Second {
				return nil, fmt.Errorf("root did not seal epoch %d within 60s", e)
			}
			time.Sleep(time.Millisecond)
		}
		out.sealMs = append(out.sealMs, float64(time.Since(t0))/1e6)
		o = cr.do("read", http.MethodGet, root.url()+"/v1/estimate", nil, time.Time{})
		if !o.ok() {
			return nil, o.failure("GET root /v1/estimate")
		}
		v0 := time.Now()
		est, err := decodeEstimate(o.body)
		if err != nil {
			return nil, fmt.Errorf("decoding root estimate: %w", err)
		}
		if est.Seq != e {
			return nil, fmt.Errorf("root served epoch %d after sealing through %d", est.Seq, e)
		}
		out.served = append(out.served, est.digest())
		verify += time.Since(v0)
	}
	out.active = time.Since(start) - verify
	cpu1, err := serversCPU(ss)
	if err != nil {
		return nil, err
	}
	out.cpuS = cpu1 - cpu0
	var st statsResponse
	if err := cf.getJSON("stats", fe.url()+"/v1/stats", &st); err != nil {
		return nil, err
	}
	out.ingested = st.IngestedTotal
	if err := cr.getJSON("stats", root.url()+"/v1/stats", &st); err != nil {
		return nil, err
	}
	if st.Cluster != nil {
		out.dups = st.Cluster.Duplicates
	}
	if st.IngestedTotal != out.ingested {
		return nil, fmt.Errorf("root ingested %d users, frontend %d", st.IngestedTotal, out.ingested)
	}
	return out, nil
}
