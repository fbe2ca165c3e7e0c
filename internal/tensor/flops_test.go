package tensor

import "testing"

func TestGEMMFLOPs(t *testing.T) {
	if got := GEMMFLOPs(2, 3, 4); got != 48 {
		t.Fatalf("GEMMFLOPs(2,3,4) = %v, want 48", got)
	}
}

func TestConvFLOPs(t *testing.T) {
	// 1x3x8x8 input, 4 output channels, 3x3 kernel, pad 1 → 1x4x8x8 out,
	// each element reducing 3*3*3 = 27 MACs.
	in := []int{1, 3, 8, 8}
	w := []int{4, 3, 3, 3}
	want := 2.0 * (1 * 4 * 8 * 8) * 27
	if got := ConvFLOPs(in, w, ConvSpec{PadH: 1, PadW: 1}); got != want {
		t.Fatalf("ConvFLOPs = %v, want %v", got, want)
	}
	// Grouped: per-group input channels shrink the reduction.
	wg := []int{4, 1, 3, 3} // groups=3 would need Cout%3==0; use depthwise-ish 4 groups on 4 channels
	ing := []int{1, 4, 8, 8}
	wantG := 2.0 * (1 * 4 * 8 * 8) * 9
	if got := ConvFLOPs(ing, wg, ConvSpec{PadH: 1, PadW: 1, Groups: 4}); got != wantG {
		t.Fatalf("grouped ConvFLOPs = %v, want %v", got, wantG)
	}
}
