package workload

import (
	"math"
	"math/rand"
	"testing"

	"paw/internal/geom"
)

// bruteMinimalDelta is the exhaustive reference for MinimalDelta: enumerate
// every matching in which each future query appears once and each
// historical query exactly |QF|/|QH| times (Definition 2), and return the
// smallest achievable maximum pair distance. Exponential — only usable on
// the tiny workloads the fuzzer generates.
func bruteMinimalDelta(hist, future Workload) float64 {
	ratio := len(future) / len(hist)
	used := make([]int, len(hist))
	best := math.Inf(1)
	var rec func(i int, curMax float64)
	rec = func(i int, curMax float64) {
		if curMax >= best {
			return
		}
		if i == len(future) {
			best = curMax
			return
		}
		for h := range hist {
			if used[h] == ratio {
				continue
			}
			used[h]++
			m := curMax
			if d := Dist(future[i], hist[h]); d > m {
				m = d
			}
			rec(i+1, m)
			used[h]--
		}
	}
	rec(0, 0)
	return best
}

func randomWorkload(rng *rand.Rand, n, dims int) Workload {
	out := make(Workload, n)
	for i := range out {
		lo := make(geom.Point, dims)
		hi := make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			a := rng.Float64() * 100
			lo[d] = a
			hi[d] = a + rng.Float64()*20
		}
		out[i] = Query{Box: geom.Box{Lo: lo, Hi: hi}, Seq: int64(i)}
	}
	return out
}

// FuzzMinimalDelta differentially tests the bottleneck bipartite matching of
// §IV-E against brute force: on every fuzzed small instance the matcher's
// minimal δ′ must equal the exhaustively determined optimum, and the
// AreSimilar decision procedure must be consistent with it on both sides of
// the threshold.
func FuzzMinimalDelta(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(1), uint8(2))
	f.Add(int64(42), uint8(3), uint8(2), uint8(1))
	f.Add(int64(-7), uint8(4), uint8(1), uint8(3))
	f.Add(int64(99), uint8(1), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nHist, ratio, dims uint8) {
		n := 1 + int(nHist)%4 // 1..4 historical queries
		r := 1 + int(ratio)%2 // ratio 1..2
		dd := 1 + int(dims)%3 // 1..3 dimensions
		rng := rand.New(rand.NewSource(seed))
		hist := randomWorkload(rng, n, dd)
		future := randomWorkload(rng, n*r, dd)

		got, err := MinimalDelta(hist, future)
		if err != nil {
			t.Fatalf("MinimalDelta: %v", err)
		}
		want := bruteMinimalDelta(hist, future)
		if got != want {
			t.Fatalf("n=%d ratio=%d dims=%d: matcher found δ′=%g, brute force %g", n, r, dd, got, want)
		}
		if ok, err := AreSimilar(hist, future, got); err != nil || !ok {
			t.Fatalf("workloads not similar at their own minimal δ′=%g (err=%v)", got, err)
		}
		if below := math.Nextafter(got, 0); below < got {
			if ok, _ := AreSimilar(hist, future, below); ok && got > 0 {
				t.Fatalf("workloads similar below the minimal δ′=%g", got)
			}
		}
	})
}
