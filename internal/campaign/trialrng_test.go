package campaign

import (
	"math"
	"math/rand"
	"testing"
)

// TestTrialSourceMatchesMathRand pins trialSource to math/rand's own
// source: over thousands of seeds — the seeding reduction's edges among
// them — a rand.Rand on either gives the same values for 1000 mixed
// draws, which cross the 273-draw tap boundary and the 607-word wrap, and
// again after a re-seed mid-stream.
func TestTrialSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max, int32max - 1, 89482311, math.MaxInt64, math.MinInt64}
	pick := rand.New(rand.NewSource(97))
	for len(seeds) < 3000 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		want, got := rand.New(rand.NewSource(seed)), rand.New(newTrialSource(seed))
		for d := 0; d < 1000; d++ {
			if d == 700 {
				want.Seed(seed + 1)
				got.Seed(seed + 1)
			}
			var w, g float64
			switch d % 5 {
			case 0:
				n := d%97 + 1
				w, g = float64(want.Intn(n)), float64(got.Intn(n))
			case 1:
				w, g = want.Float64(), got.Float64()
			case 2:
				w, g = float64(want.Uint32()), float64(got.Uint32())
			case 3:
				n := int64(d)*1e15 + 3
				w, g = float64(want.Int63n(n)), float64(got.Int63n(n))
			case 4:
				if x, y := want.Uint64(), got.Uint64(); x != y {
					t.Fatalf("seed %d, draw %d: Uint64 %d, math/rand %d", seed, d, y, x)
				}
			}
			if w != g {
				t.Fatalf("seed %d, draw %d: %v, math/rand %v", seed, d, g, w)
			}
		}
	}
}
