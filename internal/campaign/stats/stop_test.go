package stats

import (
	"math/rand"
	"testing"
)

func TestStopRuleValidate(t *testing.T) {
	good := StopRule{HalfWidth: 0.01, Confidence: 0.95, MinTrials: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid rule rejected: %v", err)
	}
	// The zero value means "no early stopping" and is valid; its other
	// fields are still checked.
	if off := (StopRule{}); off.On() || off.Validate() != nil {
		t.Fatalf("zero rule: On=%v Validate=%v, want off and valid", off.On(), off.Validate())
	}
	if !good.On() {
		t.Fatal("a positive half-width must turn the rule on")
	}
	for _, bad := range []StopRule{
		{HalfWidth: 0, Confidence: 1.5},
		{HalfWidth: 0, MinTrials: -1},
		{HalfWidth: -0.1, Confidence: 0.95},
		{HalfWidth: 0.5, Confidence: 0.95},
		{HalfWidth: 0.01, Confidence: 1},
		{HalfWidth: 0.01, Confidence: -0.5},
		{HalfWidth: 0.01, Confidence: 0.95, MinTrials: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("rule %+v must be rejected", bad)
		}
	}
}

// bernoulliStream feeds n deterministic Bernoulli(p) outcomes into w in
// trial-index order and returns the latched stop trial.
func bernoulliStream(w Watcher, seed int64, p float64, n int) int {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		w.Observe(i, rng.Float64() < p, false)
	}
	type stopper interface{ StopTrial() int }
	return w.(stopper).StopTrial()
}

func TestSequentialNeverStopsBeforeMinTrials(t *testing.T) {
	// A stream of all-identical outcomes collapses the interval almost
	// immediately; MinTrials must still hold the gate.
	w := NewSequential(StopRule{HalfWidth: 0.4, Confidence: 0.9, MinTrials: 50})
	for i := 0; i < 200; i++ {
		w.Observe(i, false, false)
		if w.ShouldStop() && i < 49 {
			t.Fatalf("stopped at trial %d before MinTrials=50", i)
		}
	}
	if got := w.StopTrial(); got != 49 {
		t.Fatalf("stop trial = %d, want 49 (first index with 50 observed)", got)
	}
}

func TestSequentialLatchesAndIgnoresPostStopTrials(t *testing.T) {
	w := NewSequential(StopRule{HalfWidth: 0.2, Confidence: 0.9, MinTrials: 20})
	stop := bernoulliStream(w, 7, 0.1, 500)
	if stop < 0 {
		t.Fatal("expected stream to stop within 500 trials")
	}
	rate, lo, hi := w.Interval()
	// Feeding more data after the latch must change nothing.
	for i := 500; i < 600; i++ {
		w.Observe(i, true, false)
	}
	if w.StopTrial() != stop {
		t.Fatalf("stop trial moved: %d -> %d", stop, w.StopTrial())
	}
	if r2, l2, h2 := w.Interval(); r2 != rate || l2 != lo || h2 != hi {
		t.Fatalf("latched interval moved: (%g,%g,%g) -> (%g,%g,%g)", rate, lo, hi, r2, l2, h2)
	}
}

func TestSequentialDeterministicReplay(t *testing.T) {
	rule := StopRule{HalfWidth: 0.05, Confidence: 0.95, MinTrials: 30}
	a := bernoulliStream(NewSequential(rule), 42, 0.15, 2000)
	b := bernoulliStream(NewSequential(rule), 42, 0.15, 2000)
	if a != b || a < 0 {
		t.Fatalf("replay diverged: %d vs %d", a, b)
	}
}

func TestSequentialSkippedTrialsDoNotCount(t *testing.T) {
	w := NewSequential(StopRule{HalfWidth: 0.4, Confidence: 0.9, MinTrials: 10})
	for i := 0; i < 100; i++ {
		w.Observe(i, false, true) // all skipped
	}
	if w.ShouldStop() {
		t.Fatal("skipped-only stream must never satisfy the rule")
	}
	if e := w.Estimate(); e.N != 0 || e.Skipped != 100 {
		t.Fatalf("estimate %+v", e)
	}
}

// TestStopMonotoneInTarget: a looser CI target can only stop earlier (or
// at the same trial), for both the sequential and stratified watchers.
func TestStopMonotoneInTarget(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		tight := StopRule{HalfWidth: 0.04, Confidence: 0.95, MinTrials: 20}
		loose := tight
		loose.HalfWidth = 0.1
		st := bernoulliStream(NewSequential(tight), seed, 0.2, 3000)
		sl := bernoulliStream(NewSequential(loose), seed, 0.2, 3000)
		if st < 0 || sl < 0 {
			t.Fatalf("seed %d: expected both rules to fire (tight %d, loose %d)", seed, st, sl)
		}
		if sl > st {
			t.Fatalf("seed %d: loose target stopped later (%d) than tight (%d)", seed, sl, st)
		}
	}
}

func FuzzStopRule(f *testing.F) {
	f.Add(0.005, 0.95, 100, int64(1), uint8(10))
	f.Add(0.1, 0.9, 0, int64(42), uint8(128))
	f.Add(0.49, 0.999, 1, int64(-7), uint8(0))
	f.Add(0.02, 0.5, 500, int64(99), uint8(255))
	f.Fuzz(func(t *testing.T, hw, conf float64, minTrials int, seed int64, pByte uint8) {
		rule := StopRule{HalfWidth: hw, Confidence: conf, MinTrials: minTrials}
		if rule.Validate() != nil || !rule.On() {
			t.Skip()
		}
		p := float64(pByte) / 255
		const n = 4000
		w := NewSequential(rule)
		rng := rand.New(rand.NewSource(seed))
		min := rule.MinTrials
		if min == 0 {
			min = DefaultMinTrials
		}
		observed := 0
		for i := 0; i < n; i++ {
			skip := rng.Float64() < 0.05
			w.Observe(i, rng.Float64() < p, skip)
			if !skip {
				observed++
			}
			if w.ShouldStop() && observed < min {
				t.Fatalf("stopped at trial %d with only %d observed (< MinTrials %d)", i, observed, min)
			}
		}
		stop := w.StopTrial()
		if stop >= 0 {
			rate, lo, hi := w.Interval()
			if lo > rate || rate > hi || lo < 0 || hi > 1 {
				t.Fatalf("latched interval out of order: rate=%g ci=[%g,%g]", rate, lo, hi)
			}
			if (hi-lo)/2 > rule.HalfWidth+1e-12 {
				t.Fatalf("stopped with half-width %g > target %g", (hi-lo)/2, rule.HalfWidth)
			}
		}
		// Monotonicity: doubling the target (still valid) stops no later.
		loose := rule
		loose.HalfWidth = hw * 2
		if loose.Validate() == nil {
			w2 := NewSequential(loose)
			rng2 := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				skip := rng2.Float64() < 0.05
				w2.Observe(i, rng2.Float64() < p, skip)
			}
			if s2 := w2.StopTrial(); stop >= 0 && (s2 < 0 || s2 > stop) {
				t.Fatalf("loose target stopped later: tight=%d loose=%d", stop, s2)
			}
		}
	})
}

// TestSequentialSnapshotResume proves the watcher's checkpoint contract:
// snapshotting after any prefix of the stream and folding the remainder
// into a restored watcher reproduces the uninterrupted fold exactly —
// same stop index, same estimator fields, same interval. This is the
// property gofi-serve's durable campaign checkpoints rely on.
func TestSequentialSnapshotResume(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		rule := StopRule{HalfWidth: 0.08, Confidence: 0.9, MinTrials: 20}
		const n = 400
		// Uninterrupted reference fold.
		ref := NewSequential(rule)
		rng := rand.New(rand.NewSource(seed))
		verdicts := make([]bool, n)
		skips := make([]bool, n)
		for i := 0; i < n; i++ {
			verdicts[i] = rng.Float64() < 0.3
			skips[i] = rng.Float64() < 0.05
			ref.Observe(i, verdicts[i], skips[i])
		}
		cutRNG := rand.New(rand.NewSource(seed * 31))
		for trial := 0; trial < 20; trial++ {
			cut := cutRNG.Intn(n + 1)
			w := NewSequential(rule)
			for i := 0; i < cut; i++ {
				w.Observe(i, verdicts[i], skips[i])
			}
			resumed := NewSequentialFromState(w.State())
			for i := cut; i < n; i++ {
				resumed.Observe(i, verdicts[i], skips[i])
			}
			if resumed.StopTrial() != ref.StopTrial() {
				t.Fatalf("seed %d cut %d: resumed stop %d != uninterrupted %d",
					seed, cut, resumed.StopTrial(), ref.StopTrial())
			}
			if resumed.Estimate() != ref.Estimate() {
				t.Fatalf("seed %d cut %d: resumed estimator %+v != %+v",
					seed, cut, resumed.Estimate(), ref.Estimate())
			}
			r1, lo1, hi1 := resumed.Interval()
			r2, lo2, hi2 := ref.Interval()
			if r1 != r2 || lo1 != lo2 || hi1 != hi2 {
				t.Fatalf("seed %d cut %d: resumed interval (%g,%g,%g) != (%g,%g,%g)",
					seed, cut, r1, lo1, hi1, r2, lo2, hi2)
			}
			if resumed.State() != ref.State() {
				t.Fatalf("seed %d cut %d: final states differ", seed, cut)
			}
		}
	}
}

// TestSequentialStateRoundTrip pins the snapshot itself: a restored
// watcher re-snapshots to the identical state, including the latched
// stop and the canonicalized rule.
func TestSequentialStateRoundTrip(t *testing.T) {
	w := NewSequential(StopRule{HalfWidth: 0.1, MinTrials: 5})
	for i := 0; i < 50; i++ {
		w.Observe(i, i%4 == 0, false)
	}
	st := w.State()
	if st.Rule.Confidence != DefaultConfidence {
		t.Fatalf("state carries uncanonicalized rule: %+v", st.Rule)
	}
	got := NewSequentialFromState(st)
	if got.State() != st {
		t.Fatalf("state round trip drifted: %+v != %+v", got.State(), st)
	}
	if got.ShouldStop() != w.ShouldStop() || got.StopTrial() != w.StopTrial() {
		t.Fatal("restored watcher disagrees with original")
	}
}
