package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConcatChannelsHandComputed(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8, 9, 10, 11, 12}, 1, 2, 2, 2)
	out := ConcatChannels(a, b)
	if got := out.Shape(); got[1] != 3 {
		t.Fatalf("concat shape %v", got)
	}
	if out.At(0, 0, 0, 0) != 1 || out.At(0, 1, 0, 0) != 5 || out.At(0, 2, 1, 1) != 12 {
		t.Fatalf("concat layout wrong: %v", out)
	}
}

func TestConcatChannelsBatched(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandUniform(rng, -1, 1, 3, 2, 4, 4)
	b := RandUniform(rng, -1, 1, 3, 5, 4, 4)
	out := ConcatChannels(a, b)
	// Sample from each batch element and each source.
	for s := 0; s < 3; s++ {
		if out.At(s, 1, 2, 3) != a.At(s, 1, 2, 3) {
			t.Fatalf("batch %d: first-source mismatch", s)
		}
		if out.At(s, 2, 0, 0) != b.At(s, 0, 0, 0) {
			t.Fatalf("batch %d: second-source mismatch", s)
		}
	}
}

func TestConcatChannelsPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"empty", func() { ConcatChannels() }},
		{"batch-mismatch", func() { ConcatChannels(New(1, 2, 4, 4), New(2, 2, 4, 4)) }},
		{"spatial-mismatch", func() { ConcatChannels(New(1, 2, 4, 4), New(1, 2, 5, 4)) }},
		{"rank", func() { ConcatChannels(New(2, 4, 4)) }},
		{"into-dst-mismatch", func() { ConcatChannelsInto(New(1, 3, 4, 4), New(1, 2, 4, 4), New(1, 2, 4, 4)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestSplitChannelsInvertsConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandUniform(rng, -1, 1, 2, 3, 4, 4)
	b := RandUniform(rng, -1, 1, 2, 1, 4, 4)
	c := RandUniform(rng, -1, 1, 2, 2, 4, 4)
	parts := SplitChannels(ConcatChannels(a, b, c), 3, 1, 2)
	if !parts[0].Equal(a) || !parts[1].Equal(b) || !parts[2].Equal(c) {
		t.Fatal("SplitChannels does not invert ConcatChannels")
	}
}

func TestSplitChannelsPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"bad-sum", func() { SplitChannels(New(1, 4, 2, 2), 1, 2) }},
		{"zero-count", func() { SplitChannels(New(1, 4, 2, 2), 0, 4) }},
		{"rank", func() { SplitChannels(New(4, 2, 2), 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestShuffleChannelsKnownPermutation(t *testing.T) {
	// 4 channels, 2 groups: [0 1 2 3] → channel c goes to (c%2)*2 + c/2,
	// i.e. 0→0, 1→2, 2→1, 3→3.
	x := New(1, 4, 1, 1)
	for c := 0; c < 4; c++ {
		x.Set(float32(c), 0, c, 0, 0)
	}
	out := ShuffleChannels(x, 2)
	want := []float32{0, 2, 1, 3}
	for c := 0; c < 4; c++ {
		if out.At(0, c, 0, 0) != want[c] {
			t.Fatalf("shuffled channel %d = %g, want %g", c, out.At(0, c, 0, 0), want[c])
		}
	}
}

func TestUnshuffleInvertsShuffle_Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		groups := []int{1, 2, 3, 6}[rng.Intn(4)]
		x := RandUniform(rng, -1, 1, 2, 6, 3, 3)
		return UnshuffleChannels(ShuffleChannels(x, groups), groups).Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"indivisible", func() { ShuffleChannels(New(1, 5, 2, 2), 2) }},
		{"zero-groups", func() { ShuffleChannels(New(1, 4, 2, 2), 0) }},
		{"rank", func() { ShuffleChannels(New(4, 2, 2), 2) }},
		{"unshuffle-indivisible", func() { UnshuffleChannels(New(1, 5, 2, 2), 2) }},
		{"unshuffle-rank", func() { UnshuffleChannels(New(5, 2, 2), 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

// Property: concat then split is the identity for random channel
// partitions.
func TestConcatSplitRoundTrip_Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		parts := make([]*Tensor, 1+rng.Intn(4))
		counts := make([]int, len(parts))
		for i := range parts {
			counts[i] = 1 + rng.Intn(4)
			parts[i] = RandUniform(rng, -1, 1, n, counts[i], 3, 3)
		}
		back := SplitChannels(ConcatChannels(parts...), counts...)
		for i := range parts {
			if !back[i].Equal(parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
