package detect

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ZScoreOutliers identifies likely attack targets by statistical anomaly
// against historical frequency series (§V-D's outlier-detection oracle):
// for each item it computes the z-score of the current frequency against
// the item's own history and returns up to k items whose score exceeds
// minZ, ordered by decreasing score. The history is periods × items.
func ZScoreOutliers(history [][]float64, current []float64, k int, minZ float64) ([]int, error) {
	return ZScoreOutliersMinSD(history, current, k, minZ, 0)
}

// ZScoreOutliersMinSD is ZScoreOutliers with a deviation floor: each
// item's historical standard deviation is taken as at least minSD before
// scoring. Callers who know the estimator's theoretical noise (e.g. the
// LDP aggregation variance of Eq. 4/7 at the current report count) pass
// it here so items whose history happens to be degenerate — a tail item
// the simplex refinement clips to zero every period has sample deviation
// zero — cannot turn ordinary estimation noise into an astronomical
// score and crowd the genuinely attacked items out of the top k.
func ZScoreOutliersMinSD(history [][]float64, current []float64, k int, minZ, minSD float64) ([]int, error) {
	if len(history) < 2 {
		return nil, errors.New("detect: need at least 2 history periods")
	}
	d := len(current)
	if d == 0 {
		return nil, errors.New("detect: empty current frequencies")
	}
	for t, fs := range history {
		if len(fs) != d {
			return nil, fmt.Errorf("detect: history period %d has %d items, want %d", t, len(fs), d)
		}
	}
	if k < 1 {
		return nil, fmt.Errorf("detect: invalid outlier count %d", k)
	}
	if minZ < 0 || math.IsNaN(minZ) {
		return nil, fmt.Errorf("detect: invalid z threshold %v", minZ)
	}
	if minSD < 0 || math.IsNaN(minSD) || math.IsInf(minSD, 0) {
		return nil, fmt.Errorf("detect: invalid deviation floor %v", minSD)
	}

	// Per-item moments, accumulated row by row over the history (each
	// period is one contiguous vector) rather than by gathering each
	// item's column, one block of items at a time so the accumulators
	// and the block's rows stay in cache across both passes. Every item
	// still sees exactly the operation order of stats.Mean (Neumaier
	// sum, then divide) and stats.SampleVariance (two-pass Kahan sum of
	// squared deviations, then Bessel), so the scores are bit-identical
	// to the per-item formulation.
	const block = 512
	var sumBuf, compBuf, vsumBuf [block]float64
	type scored struct {
		item int
		z    float64
	}
	var out []scored
	n := float64(len(history))
	for lo := 0; lo < d; lo += block {
		hi := min(lo+block, d)
		sum, comp, vsum := sumBuf[:hi-lo], compBuf[:hi-lo], vsumBuf[:hi-lo]
		clear(sum)
		clear(comp)
		clear(vsum)
		for _, fs := range history {
			for i, x := range fs[lo:hi] {
				t := sum[i] + x
				if math.Abs(sum[i]) >= math.Abs(x) {
					comp[i] += (sum[i] - t) + x
				} else {
					comp[i] += (x - t) + sum[i]
				}
				sum[i] = t
			}
		}
		mu := sum
		for i := range mu {
			mu[i] = (sum[i] + comp[i]) / n
		}
		vcomp := comp
		clear(vcomp)
		for _, fs := range history {
			for i, x := range fs[lo:hi] {
				dev := x - mu[i]
				y := dev*dev - vcomp[i]
				t := vsum[i] + y
				vcomp[i] = (t - vsum[i]) - y
				vsum[i] = t
			}
		}
		for i, m := range mu {
			sd := math.Sqrt(vsum[i] / n * n / (n - 1))
			if sd < minSD {
				sd = minSD
			}
			if sd == 0 {
				// A perfectly flat history cannot absorb any deviation; any
				// change is infinitely anomalous. Use a tiny floor instead to
				// keep scores finite and comparable.
				sd = 1e-12
			}
			z := (current[lo+i] - m) / sd
			if z >= minZ {
				out = append(out, scored{lo + i, z})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].z != out[b].z {
			return out[a].z > out[b].z
		}
		return out[a].item < out[b].item
	})
	if len(out) > k {
		out = out[:k]
	}
	items := make([]int, len(out))
	for i, s := range out {
		items[i] = s.item
	}
	return items, nil
}

// TopIncrease returns the k items with the largest frequency increase
// from before to after — the paper's target-identification rule for the
// adaptive attack ("items that exhibit the top-r/2 frequency increase
// following the attack", §VI-A.4).
func TopIncrease(before, after []float64, k int) ([]int, error) {
	if len(before) != len(after) {
		return nil, fmt.Errorf("detect: before length %d, after length %d", len(before), len(after))
	}
	if len(before) == 0 {
		return nil, errors.New("detect: empty frequency vectors")
	}
	if k < 1 || k > len(before) {
		return nil, fmt.Errorf("detect: invalid top count %d", k)
	}
	idx := make([]int, len(before))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		da := after[idx[a]] - before[idx[a]]
		db := after[idx[b]] - before[idx[b]]
		if da != db {
			return da > db
		}
		return idx[a] < idx[b]
	})
	return idx[:k], nil
}
