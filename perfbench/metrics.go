package main

import (
	"fmt"
	"math"
	"slices"
)

// Percentiles the end-to-end timings report besides the median.
const (
	ackQ  = 0.99
	sealQ = 0.90
	readQ = 0.99
)

// endToEnd computes the user-visible metrics of an untraced phase.
func (w workload) endToEnd(p *phase, ref *expected) (map[string]metric, error) {
	out := p.out
	// The upper percentiles are printed with the timings (printReport)
	// but not returned: on a shared 2-vCPU host they spread past any
	// bound across runs of the same code.
	ack := summarize(out.led.samples("ingest"), ackQ)
	seal := summarize(out.sealMs, sealQ)
	read := summarize(out.led.samples("read"), readQ)
	from, to := w.quality[0], w.quality[1]
	if len(out.served) < to {
		return nil, fmt.Errorf("sealed %d epochs; the quality metrics need %d", len(out.served), to)
	}
	ms := map[string]metric{
		"setup_s":              {p.setupS, "s"},
		"ingest_reports_per_s": {float64(out.ingested-out.warmSent) / out.active.Seconds(), "1/s"},
		"ack_ms_p50":           {ack.p50, "ms"},
		"seal_ms_p50":          {seal.p50, "ms"},
		"read_ms_p50":          {read.p50, "ms"},
		"server_rss_mb":        {p.rssMB, "MB"},
		// CPU for a fixed amount of work: one epoch of the workload's
		// schedule.
		"server_cpu_s": {out.cpuS / float64(out.timedEpochs()), "s"},
		// Recovery quality of the served estimates (bit-identical to the
		// replay's, which check verified), averaged over the workload's
		// fixed epochs at full attack strength. The gain is taken in
		// magnitude: recovery that leaves the targets under- or
		// over-counted is off either way, and a positive value keeps
		// "lower is better" unambiguous.
		"recovered_mse": {mean(ref.mse[from:to], false), "1"},
		"target_fg":     {mean(ref.fg[from:to], true), "1"},
	}
	fmt.Printf("#   signed target frequency gain over epochs %d-%d: %.6g\n", from, to-1, mean(ref.fg[from:to], false))
	return ms, nil
}

// mean averages xs, or their magnitudes when abs is set.
func mean(xs []float64, abs bool) float64 {
	var s float64
	for _, x := range xs {
		if abs {
			x = math.Abs(x)
		}
		s += x
	}
	return s / float64(len(xs))
}

// printReport writes the end-to-end metrics with their sample counts,
// under-sampled percentiles, and the failure accounting.
func printReport(p *phase, e2e map[string]metric) {
	out := p.out
	printMetrics("end-to-end metrics", e2e)
	a, f := out.led.counts()
	fmt.Printf("#   %-34s %16.6g 1   (failed %d / attempted %d)\n", "failed_frac", out.led.failedFrac(), f, a)
	for _, t := range []struct {
		name string
		t    timing
	}{
		{"ack_ms", summarize(out.led.samples("ingest"), ackQ)},
		{"seal_ms", summarize(out.sealMs, sealQ)},
		{"read_ms", summarize(out.led.samples("read"), readQ)},
	} {
		note := ""
		if !t.t.sampled {
			note = fmt.Sprintf("  UNDER-SAMPLED: p%g needs %d samples to have %d beyond it",
				t.t.q*100, minSamplesFor(t.t.q), minBeyond)
		}
		fmt.Printf("#   %s: n=%d p50=%.4g %s_p%g=%.4g ms (printed, not in the result line)%s\n",
			t.name, t.t.n, t.t.p50, t.name, t.t.q*100, t.t.upper, note)
	}
	for _, route := range []string{"ingest", "read"} {
		xs := out.led.samples(route)
		fmt.Printf("#   %s latency ladder (whole run, ms):", route)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999, 1} {
			v, _ := percentile(xs, q)
			fmt.Printf(" p%g=%.3g", q*100, v)
		}
		fmt.Println()
	}
	fmt.Printf("#   epochs sealed %d after %d warm-up epochs, reports folded %d in %.2fs\n",
		out.timedEpochs(), out.warmEp, out.ingested-out.warmSent, out.active.Seconds())
}

// perLayer computes the traced run's per-layer metrics: HTTP timing by
// route from httptrace spans, serving counters from /v1/stats and the
// ingest acks, in-process layer timings from the traced replay, the
// generator's own cost, and the tracing overhead.
func (w workload) perLayer(p, pt *phase, tr *tracer, snapBytes int64) map[string]metric {
	med := func(name string) float64 { return orZero(median(tr.durations(name))) }
	ms := map[string]metric{}
	put := func(name string, v float64, unit string) { ms[name] = metric{orZero(v), unit} }

	ttfb := map[string]float64{}
	for _, route := range []string{"ingest", "seal", "read", "stats"} {
		ttfb[route] = orZero(median(tr.sampled("http.ttfb." + route)))
		put("http.ttfb_us."+route, ttfb[route], "us")
	}
	put("http.req_write_us", med("http.req_write"), "us")
	put("http.resp_read_us", med("http.resp_read"), "us")
	// In-process time on each route's request path: the handler only
	// validates a report batch before acking (WAL and fold run after the
	// ack, on the ingest workers), while a partial is decoded, logged and
	// folded before its answer; a seal runs the whole Store.Seal; a
	// ?window=k read re-runs recovery, a plain read is a pointer load.
	ingestPath := med("ldp.validate")
	if w.partials {
		ingestPath = med("replay.partial")
	}
	put("http.residual_us.ingest", ttfb["ingest"]-ingestPath, "us")
	put("http.residual_us.seal", ttfb["seal"]-med("replay.seal"), "us")
	windowShare := 0.5
	if w.partials {
		windowShare = 0 // the cluster's reads are plain
	}
	put("http.residual_us.read", ttfb["read"]-windowShare*med("stream.estimate_window"), "us")

	out := pt.out
	q50, _ := percentile(out.queue, 0.5)
	put("serve.queue_depth_p50", q50, "count")
	put("serve.queue_depth_max", maxOf(out.queue), "count")
	put("serve.rejected", float64(out.rejected), "count")
	put("serve.buf_pool_hit_ratio", ratio(float64(out.poolHits), float64(out.poolGets)), "1")
	put("cluster.pending_tallies_max", maxOf(out.pending), "count")
	put("cluster.duplicate_ratio", ratio(float64(out.dups), float64(out.tallies)), "1")

	perReport := 1e3 / float64(max(w.perFrame, 1))
	if w.partials {
		perReport = 0 // no report frames on this path
	}
	put("ldp.validate_ns_per_report", med("ldp.validate")*perReport, "ns")
	put("ldp.fold_ns_per_report", med("ldp.fold")*perReport, "ns")
	put("ldp.unmarshal_partial_us", med("ldp.unmarshal_partial"), "us")
	put("ldp.tally_codec_us", med("ldp.tally_codec"), "us")

	wal := tr.durations("persist.wal_append")
	w50, _ := percentile(wal, 0.5)
	w99, _ := percentile(wal, 0.99)
	put("persist.wal_append_us_p50", w50, "us")
	put("persist.wal_append_us_p99", w99, "us")
	put("persist.snapshot_write_ms", med("persist.snapshot_write")/1e3, "ms")
	put("persist.snapshot_bytes", float64(snapBytes), "B")

	put("stream.seal_ms", med("stream.seal")/1e3, "ms")
	put("stream.snapshot_state_us", med("stream.snapshot_state"), "us")
	put("stream.estimate_window_us", med("stream.estimate_window"), "us")
	put("stream.merge_sealed_us", med("stream.merge_sealed"), "us")
	put("core.recover_us", med("core.recover"), "us")
	put("detect.zscore_us", med("detect.zscore"), "us")

	late, _ := percentile(p.out.led.late, 0.99)
	put("gen.late_ms_p99", late, "ms")
	put("gen.cpu_s", p.genCPUS, "s")

	ack0, ack1 := median(p.out.led.samples("ingest")), median(pt.out.led.samples("ingest"))
	read0, read1 := median(p.out.led.samples("read")), median(pt.out.led.samples("read"))
	put("trace.overhead_ack_ms", ack1-ack0, "ms")
	put("trace.overhead_read_ms", read1-read0, "ms")
	return ms
}

func orZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
