package detect

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
)

// referenceZScores is the per-item formulation ZScoreOutliersMinSD must
// reproduce bit for bit: gather each item's column, then score it with
// stats.Mean and stats.SampleVariance.
func referenceZScores(history [][]float64, current []float64, minSD float64) []float64 {
	zs := make([]float64, len(current))
	series := make([]float64, len(history))
	for v := range current {
		for t := range history {
			series[t] = history[t][v]
		}
		sd := math.Sqrt(stats.SampleVariance(series))
		if sd < minSD {
			sd = minSD
		}
		if sd == 0 {
			sd = 1e-12
		}
		zs[v] = (current[v] - stats.Mean(series)) / sd
	}
	return zs
}

// referenceItems selects and orders items from reference scores the way
// ZScoreOutliersMinSD documents: score at least minZ, decreasing score,
// ties by item, at most k.
func referenceItems(zs []float64, k int, minZ float64) []int {
	items := []int{}
	for v, z := range zs {
		if z >= minZ {
			items = append(items, v)
		}
	}
	sort.SliceStable(items, func(a, b int) bool { return zs[items[a]] > zs[items[b]] })
	return items[:min(k, len(items))]
}

// checkZScoreEquivalent compares ZScoreOutliersMinSD with the reference
// at the threshold 0 and at every item's reference score and the next
// float above it, so an item whose score moved by a single ulp in either
// direction changes a returned item list.
func checkZScoreEquivalent(t *testing.T, history [][]float64, current []float64, minSD float64) {
	t.Helper()
	zs := referenceZScores(history, current, minSD)
	thresholds := []float64{0}
	for _, z := range zs {
		if z >= 0 {
			thresholds = append(thresholds, z, math.Nextafter(z, math.Inf(1)))
		}
	}
	for _, k := range []int{1, len(current)} {
		for _, minZ := range thresholds {
			got, err := ZScoreOutliersMinSD(history, current, k, minZ, minSD)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceItems(zs, k, minZ); !reflect.DeepEqual(append([]int{}, got...), want) {
				t.Fatalf("k=%d minZ=%v minSD=%v: items %v, reference %v", k, minZ, minSD, got, want)
			}
		}
	}
}

type zscoreCase struct {
	name    string
	history [][]float64
	current []float64
	minSD   float64
}

func TestZScoreOutliersBitIdenticalToPerItemReference(t *testing.T) {
	r := rng.New(2024)
	matrix := func(rows, d int, cell func(t, v int) float64) [][]float64 {
		h := make([][]float64, rows)
		for i := range h {
			h[i] = make([]float64, d)
			for v := range h[i] {
				h[i][v] = cell(i, v)
			}
		}
		return h
	}
	noisy := func(t, v int) float64 { return 0.01*float64(v%7) + 0.003*r.NormFloat64() }

	cases := []zscoreCase{
		{
			name:    "two-rows",
			history: matrix(2, 16, noisy),
			current: matrix(1, 16, noisy)[0],
		},
		{
			name:    "d=1",
			history: matrix(9, 1, noisy),
			current: []float64{0.2},
		},
		{
			name:    "d=1-two-rows",
			history: [][]float64{{0.1}, {0.3}},
			current: []float64{0.5},
		},
		{
			// Values of ±1e6 cancel within each item's series, leaving a
			// small remainder only the compensated sums keep.
			name: "cancelling-1e6",
			history: matrix(12, 24, func(t, v int) float64 {
				big := 1e6 * float64(1-2*(t%2))
				return big + 1e-3*float64(v) + 1e-7*r.NormFloat64()
			}),
			current: matrix(1, 24, func(_, v int) float64 { return 1e-3*float64(v) + 1e-5*float64(v%3) })[0],
		},
		{
			name:    "all-zero-rows",
			history: matrix(6, 10, func(int, int) float64 { return 0 }),
			current: matrix(1, 10, func(_, v int) float64 { return 1e-13 * float64(v-3) })[0],
		},
		{
			name:    "constant-rows",
			history: matrix(5, 10, func(_, v int) float64 { return 0.1 * float64(v) }),
			current: matrix(1, 10, func(_, v int) float64 { return 0.1*float64(v) + 1e-3*float64(v%4) })[0],
		},
		{
			// The floor replaces the deviation of the flat and the quiet
			// items but not of the noisy ones.
			name: "minSD-floor",
			history: matrix(8, 20, func(t, v int) float64 {
				switch {
				case v < 5:
					return 0.05
				case v < 10:
					return 0.05 + 1e-4*r.NormFloat64()
				default:
					return 0.05 + 0.02*r.NormFloat64()
				}
			}),
			current: matrix(1, 20, func(_, v int) float64 { return 0.05 + 0.01*float64(v%5) })[0],
			minSD:   0.005,
		},
	}
	for seed := 0; seed < 6; seed++ {
		rows, d := 2+seed*3, 1+seed*11
		cases = append(cases, zscoreCase{
			name: fmt.Sprintf("random-%dx%d", rows, d),
			history: matrix(rows, d, func(int, int) float64 {
				return math.Ldexp(r.NormFloat64(), int(r.Uint64()%40)-30)
			}),
			current: matrix(1, d, func(int, int) float64 {
				return math.Ldexp(r.NormFloat64(), int(r.Uint64()%40)-30)
			})[0],
			minSD: []float64{0, 1e-9, 1e-3}[seed%3],
		})
	}
	// Wider than the scan's item block, with a ragged last block.
	cases = append(cases, zscoreCase{
		name:    "random-5x1283",
		history: matrix(5, 1283, noisy),
		current: matrix(1, 1283, noisy)[0],
		minSD:   1e-3,
	})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkZScoreEquivalent(t, c.history, c.current, c.minSD)
		})
	}
}
