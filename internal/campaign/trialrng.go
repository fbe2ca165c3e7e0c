package campaign

// trialSource is math/rand's default source (rand.NewSource), seeded
// lazily. rand.NewSource fills all 607 words of its additive lagged
// Fibonacci register up front, running the seeding recurrence
// x[n+1] = 48271·x[n] mod (2³¹−1) 1841 times. A trial draws a handful of
// values, so that seeding was most of what TrialStream cost.
//
// The recurrence has a closed form: x[n] = seed·48271ⁿ mod (2³¹−1). State
// word i is built from x[21+3i], x[22+3i] and x[23+3i], so it can be
// computed alone from a table of those powers. trialSource computes a
// word only when a draw first reads it, and from then on the register
// runs as math/rand's does: each output is vec[feed] + vec[tap], and the
// sum is stored back at feed. The first 273 draws read tap words that
// were never written; later ones read the sums stored 273 draws earlier.
// Both kinds are the same values math/rand would hold, so the stream is
// math/rand's, draw for draw, for every seed.

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

// seedPow[n] is 48271ⁿ mod (2³¹−1) for every n seeding reads.
var seedPow = func() (t [21 + 3*rngLen]uint64) {
	t[0] = 1
	for n := 1; n < len(t); n++ {
		t[n] = t[n-1] * 48271 % int32max
	}
	return t
}()

type trialSource struct {
	tap, feed int
	seed      uint64                     // the seed reduced as math/rand reduces it
	have      [(rngLen + 63) / 64]uint64 // bit i: vec[i] has been computed
	vec       [rngLen]int64
}

func newTrialSource(seed int64) *trialSource {
	s := new(trialSource)
	s.Seed(seed)
	return s
}

// Seed resets the source to math/rand's state for seed, computing none
// of it yet.
func (s *trialSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.have = [len(s.have)]uint64{}
}

// word returns register word i, computing its seeded value on first use.
func (s *trialSource) word(i int) int64 {
	if s.have[i>>6]&(1<<(i&63)) == 0 {
		n := 21 + 3*i
		s.vec[i] = s.x(n)<<40 ^ s.x(n+1)<<20 ^ s.x(n+2) ^ rngCooked[i]
		s.have[i>>6] |= 1 << (i & 63)
	}
	return s.vec[i]
}

// x is the seeding recurrence's n-th value, seed·48271ⁿ mod (2³¹−1).
func (s *trialSource) x(n int) int64 { return int64(s.seed * seedPow[n] % int32max) }

// Uint64 is math/rand's rngSource.Uint64.
func (s *trialSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is math/rand's rngSource.Int63.
func (s *trialSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
