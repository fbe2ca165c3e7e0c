package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestMaxPool2dHandComputed(t *testing.T) {
	x := FromSlice([]float32{
		1, 3, 2, 4,
		5, 6, 7, 8,
		9, 2, 1, 0,
		3, 4, 5, 6,
	}, 1, 1, 4, 4)
	out, arg := MaxPool2d(x, PoolSpec{KernelH: 2, KernelW: 2})
	want := FromSlice([]float32{6, 8, 9, 6}, 1, 1, 2, 2)
	if !out.Equal(want) {
		t.Fatalf("MaxPool2d = %v, want %v", out, want)
	}
	// The argmax of the top-left window (value 6) is flat index 5.
	if arg[0] != 5 {
		t.Fatalf("arg[0] = %d, want 5", arg[0])
	}
}

func TestMaxPool2dOverlappingStride(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	out, _ := MaxPool2d(x, PoolSpec{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1})
	want := FromSlice([]float32{5, 6, 8, 9}, 1, 1, 2, 2)
	if !out.Equal(want) {
		t.Fatalf("overlapping MaxPool2d = %v, want %v", out, want)
	}
}

func TestMaxPool2dPadding(t *testing.T) {
	x := FromSlice([]float32{-5, -6, -7, -8}, 1, 1, 2, 2)
	// Padded positions are -Inf, so max of all-negative input stays the
	// input value, never 0.
	out, _ := MaxPool2d(x, PoolSpec{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1})
	if out.Max() != -5 {
		t.Fatalf("padded MaxPool max = %g, want -5", out.Max())
	}
}

func TestMaxPool2dBackwardRoutesToArgmax(t *testing.T) {
	x := FromSlice([]float32{
		1, 3,
		2, 4,
	}, 1, 1, 2, 2)
	out, arg := MaxPool2d(x, PoolSpec{KernelH: 2, KernelW: 2})
	if out.At(0, 0, 0, 0) != 4 {
		t.Fatalf("max = %g", out.At(0, 0, 0, 0))
	}
	grad := MaxPool2dBackward(x.Shape(), arg, FromSlice([]float32{10}, 1, 1, 1, 1))
	want := FromSlice([]float32{0, 0, 0, 10}, 1, 1, 2, 2)
	if !grad.Equal(want) {
		t.Fatalf("MaxPool2dBackward = %v, want %v", grad, want)
	}
}

func TestAvgPool2dHandComputed(t *testing.T) {
	x := FromSlice([]float32{
		1, 3, 2, 4,
		5, 7, 6, 8,
		1, 1, 1, 1,
		1, 1, 1, 1,
	}, 1, 1, 4, 4)
	out := AvgPool2d(x, PoolSpec{KernelH: 2, KernelW: 2})
	want := FromSlice([]float32{4, 5, 1, 1}, 1, 1, 2, 2)
	if !out.Equal(want) {
		t.Fatalf("AvgPool2d = %v, want %v", out, want)
	}
}

// avgPoolReference is AvgPool2d's generic window loop as it stood before
// the 2×2/stride-2 geometry got its own: the chain ((+0 + v₀) + v₁ + …) ·
// inv over the window in row-major order, padded taps skipped. It also
// reports the outputs whose chain adds a NaN to a NaN sum: when two NaNs
// meet in an add, the first source operand's survives, and Go leaves the
// operand order to the compiler — a -race build orders this loop's adds
// differently from a plain one — so there only NaN-ness is defined.
func avgPoolReference(x *Tensor, spec PoolSpec) (*Tensor, []bool) {
	spec, oh, ow := checkPool(x, spec)
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := New(n, c, oh, ow)
	nanPair := make([]bool, out.Len())
	inv := 1 / float32(spec.KernelH*spec.KernelW)
	for p := 0; p < n*c; p++ {
		in := x.data[p*h*w : (p+1)*h*w]
		o := out.data[p*oh*ow : (p+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for ky := 0; ky < spec.KernelH; ky++ {
					iy := oy*spec.StrideH - spec.PadH + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < spec.KernelW; kx++ {
						ix := ox*spec.StrideW - spec.PadW + kx
						if ix < 0 || ix >= w {
							continue
						}
						v := in[iy*w+ix]
						if s != s && v != v {
							nanPair[p*oh*ow+oy*ow+ox] = true
						}
						s += v
					}
				}
				o[oy*ow+ox] = s * inv
			}
		}
	}
	return out, nanPair
}

// TestAvgPool2dIntoMatchesGeneric pins AvgPool2dInto — the unrolled
// 2×2/stride-2 loop and the generic one — to the reference loop by
// Float32bits, on planes of special values (signed zeros, whose +0 chain
// start turns an all-−0 window into +0, infinities that cancel into NaN,
// NaN payloads, denormals, values whose sum overflows) and on random bit
// patterns, at even and odd plane sizes, into a dirty dst twice. A chain in
// which two NaNs meet must give a NaN, of either payload.
func TestAvgPool2dIntoMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	specials := append([]uint32{0x80000000, 0x80000000, 0x80000000, 0x7f7fffff, 0x7f7fffff}, elemSpecials...)
	specs := []PoolSpec{
		{KernelH: 2, KernelW: 2},
		{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2},
		{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1},
		{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	}
	for _, dims := range [][4]int{{1, 1, 2, 2}, {2, 3, 8, 8}, {1, 2, 9, 7}, {2, 4, 16, 16}, {1, 1, 5, 12}} {
		for _, fill := range []string{"specials", "random"} {
			x := New(dims[:]...)
			for i := range x.data {
				if fill == "specials" {
					x.data[i] = math.Float32frombits(specials[rng.Intn(len(specials))])
				} else {
					x.data[i] = math.Float32frombits(rng.Uint32())
				}
			}
			if fill == "specials" {
				// One all −0 window, at the first output of every plane.
				w := dims[3]
				for p := 0; p < dims[0]*dims[1]; p++ {
					for _, i := range []int{0, 1, w, w + 1} {
						x.data[p*dims[2]*w+i] = float32(math.Copysign(0, -1))
					}
				}
			}
			for _, spec := range specs {
				want, nanPair := avgPoolReference(x, spec)
				dst := New(PoolOutShape(x.shape, spec)...)
				for i := range dst.data {
					dst.data[i] = float32(math.NaN())
				}
				for pass := 0; pass < 3; pass++ {
					got := dst
					if pass < 2 {
						AvgPool2dInto(dst, x, spec)
					} else {
						got = AvgPool2d(x, spec)
					}
					for i, v := range want.data {
						if g := got.data[i]; !sameBits(g, v) && !(nanPair[i] && g != g) {
							t.Fatalf("%v %s spec %+v pass %d: output %d = %#08x, reference %#08x", dims, fill, spec, pass, i, math.Float32bits(got.data[i]), math.Float32bits(v))
						}
					}
				}
			}
		}
	}
}

func TestAvgPool2dBackwardDistributes(t *testing.T) {
	inShape := []int{1, 1, 2, 2}
	gradOut := FromSlice([]float32{8}, 1, 1, 1, 1)
	grad := AvgPool2dBackward(inShape, PoolSpec{KernelH: 2, KernelW: 2}, gradOut)
	want := Full(2, 1, 1, 2, 2)
	if !grad.Equal(want) {
		t.Fatalf("AvgPool2dBackward = %v, want %v", grad, want)
	}
}

func TestGlobalAvgPool2d(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4, // channel 0: mean 2.5
		10, 10, 10, 10, // channel 1: mean 10
	}, 1, 2, 2, 2)
	out := GlobalAvgPool2d(x)
	if out.At(0, 0, 0, 0) != 2.5 || out.At(0, 1, 0, 0) != 10 {
		t.Fatalf("GlobalAvgPool2d = %v", out)
	}
	grad := GlobalAvgPool2dBackward(x.Shape(), FromSlice([]float32{4, 8}, 1, 2, 1, 1))
	if grad.At(0, 0, 1, 1) != 1 || grad.At(0, 1, 0, 0) != 2 {
		t.Fatalf("GlobalAvgPool2dBackward = %v", grad)
	}
}

func TestPoolGradientSumConservation(t *testing.T) {
	// Sum of max-pool input gradients equals sum of output gradients
	// (each output routes exactly once).
	rng := rand.New(rand.NewSource(5))
	x := RandUniform(rng, -1, 1, 2, 3, 8, 8)
	out, arg := MaxPool2d(x, PoolSpec{KernelH: 2, KernelW: 2})
	gradOut := RandUniform(rng, -1, 1, out.Shape()...)
	grad := MaxPool2dBackward(x.Shape(), arg, gradOut)
	if d := grad.Sum() - gradOut.Sum(); d > 1e-3 || d < -1e-3 {
		t.Fatalf("gradient mass not conserved: %g vs %g", grad.Sum(), gradOut.Sum())
	}
}

func TestPoolPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"rank3", func() { MaxPool2d(New(1, 2, 3), PoolSpec{KernelH: 1, KernelW: 1}) }},
		{"zero-kernel", func() { AvgPool2d(New(1, 1, 4, 4), PoolSpec{}) }},
		{"kernel-too-big", func() { MaxPool2d(New(1, 1, 2, 2), PoolSpec{KernelH: 5, KernelW: 5}) }},
		{"gap-rank3", func() { GlobalAvgPool2d(New(2, 3, 4)) }},
		{"avg-into-dst-shape", func() { AvgPool2dInto(New(1, 1, 3, 3), New(1, 1, 4, 4), PoolSpec{KernelH: 2, KernelW: 2}) }},
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

func TestPoolSerialParallelAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := RandUniform(rng, -1, 1, 4, 8, 16, 16)
	prev := SetWorkers(1)
	s1, _ := MaxPool2d(x, PoolSpec{KernelH: 2, KernelW: 2})
	a1 := AvgPool2d(x, PoolSpec{KernelH: 2, KernelW: 2})
	SetWorkers(8)
	s2, _ := MaxPool2d(x, PoolSpec{KernelH: 2, KernelW: 2})
	a2 := AvgPool2d(x, PoolSpec{KernelH: 2, KernelW: 2})
	SetWorkers(prev)
	if !s1.Equal(s2) || !a1.Equal(a2) {
		t.Fatal("pool backends disagree")
	}
}

// TestPoolOutShapeAndFLOPs pins the pooled shape, stride defaulting to
// the kernel.
func TestPoolOutShapeAndFLOPs(t *testing.T) {
	in := []int{2, 3, 8, 8}
	spec := PoolSpec{KernelH: 2, KernelW: 2} // stride defaults to kernel
	got := PoolOutShape(in, spec)
	want := []int{2, 3, 4, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PoolOutShape = %v, want %v", got, want)
		}
	}
}
