package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones the run protocol
// computes. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// minBeyond is how many samples must lie above a reported percentile for
// it to mean anything: a tail figure resting on fewer is noise.
const minBeyond = 10

// tailLadder lists the percentiles a tail figure may fall back to, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail is a latency percentile together with the evidence behind it.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// nearestRank returns the 1-based nearest-rank index of percentile p over
// n samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile reports the highest percentile no higher than want that
// has at least minBeyond samples beyond it (nearest-rank). When even the
// median lacks that many, it reports the median and the thin evidence.
func tailPercentile(xs []float64, want float64) tail {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return tail{Percentile: want, Value: math.NaN()}
	}
	pick := 50.0
	for _, p := range tailLadder {
		if p <= want && n-nearestRank(p, n) >= minBeyond {
			pick = p
			break
		}
	}
	r := nearestRank(pick, n)
	return tail{Percentile: pick, Value: s[r-1], Samples: n, Beyond: n - r}
}

// ratio is num/den, or 0 when den is 0 (a layer that saw no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
