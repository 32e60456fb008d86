package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
)

var inf = math.Inf(1)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs and
// whether xs holds at least minBeyond samples beyond it. A percentile
// without that many samples above it is under-sampled: it is reported
// with that flag, never silently.
func percentile(xs []float64, p float64) (v float64, sampled bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// minSamplesFor is the smallest sample count for which the p-quantile
// has minBeyond samples beyond it.
func minSamplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= minBeyond {
			return n
		}
	}
}

// median is the nearest-rank median.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// minRounds is how many rounds a run's samples must fill before a
// percentile is taken over rounds rather than over the whole run.
const minRounds = 5

// timing summarizes latency samples, in the order they were taken, as
// the median and one named upper percentile q, with the sample count.
type timing struct {
	p50, upper float64
	q          float64
	n          int
	sampled    bool // upper has minBeyond samples beyond it
}

func summarize(xs []float64, q float64) timing {
	t := timing{q: q, n: len(xs)}
	t.p50 = median(xs)
	t.upper, t.sampled = quantile(xs, q)
	return t
}

// quantile is the q-quantile of samples taken in order. The samples are
// cut into consecutive rounds of minSamplesFor(q) each, the fewest that
// put minBeyond samples beyond q (a remainder joins the last round), and
// the result is the median of the rounds' q-quantiles: a disturbance
// confined to a few rounds, such as a burst of host contention, moves it
// little. With fewer than minRounds rounds it is the whole run's
// q-quantile, and sampled says whether the run has minBeyond samples
// beyond it. The quantile is always q itself, so a run with fewer
// samples reports the same quantile, flagged, rather than a lower one.
func quantile(xs []float64, q float64) (v float64, sampled bool) {
	size := minSamplesFor(q)
	n := len(xs) / size
	if n < minRounds {
		return percentile(xs, q)
	}
	per := make([]float64, n)
	for i := range per {
		end := (i + 1) * size
		if i == n-1 {
			end = len(xs)
		}
		per[i], _ = percentile(xs[i*size:end], q)
	}
	return median(per), true
}

// estimateDigest fingerprints the served parts of an estimate —
// poisoned and recovered frequencies bit for bit, targets, and whether
// LDPRecover* ran — for the bit-identity gate.
func estimateDigest(seq int, poisoned, recovered []float64, targets []int, partial bool) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(seq))
	put(uint64(len(poisoned)))
	for _, f := range poisoned {
		put(math.Float64bits(f))
	}
	put(uint64(len(recovered)))
	for _, f := range recovered {
		put(math.Float64bits(f))
	}
	put(uint64(len(targets)))
	for _, t := range targets {
		put(uint64(t))
	}
	if partial {
		put(1)
	} else {
		put(0)
	}
	return h.Sum64()
}

func (e *estimateResponse) digest() uint64 {
	return estimateDigest(e.Seq, e.Poisoned, e.Recovered, e.Targets, e.PartialKnowledge)
}
