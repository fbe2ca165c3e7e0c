package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveConv2d is a direct-loop reference convolution used to validate the
// conv lowerings. Each output sums its taps in the GEMM's k order
// (channel, ky, kx), padded taps included as w·0 products: those are +0
// or −0 for a finite weight but NaN for an Inf or NaN one, which a
// weight fault can produce.
func naiveConv2d(x, w, bias *Tensor, spec ConvSpec) *Tensor {
	spec = spec.Canon()
	n, c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	cout, cg, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	g := spec.Groups
	coutG := cout / g
	oh := (h+2*spec.PadH-kh)/spec.StrideH + 1
	ow := (wd+2*spec.PadW-kw)/spec.StrideW + 1
	out := New(n, cout, oh, ow)
	for s := 0; s < n; s++ {
		for oc := 0; oc < cout; oc++ {
			gi := oc / coutG
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					for ic := 0; ic < cg; ic++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								iy := oy*spec.StrideH - spec.PadH + ky
								ix := ox*spec.StrideW - spec.PadW + kx
								var xv float32
								if iy >= 0 && iy < h && ix >= 0 && ix < wd {
									xv = x.At(s, gi*cg+ic, iy, ix)
								}
								acc += w.At(oc, ic, ky, kx) * xv
							}
						}
					}
					if bias != nil {
						acc += bias.At(oc)
					}
					out.Set(acc, s, oc, oy, ox)
				}
			}
		}
	}
	_ = c
	return out
}

func TestConv2dIdentityKernel(t *testing.T) {
	// A 1x1 kernel of weight 1 is the identity for a single channel.
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	w := FromSlice([]float32{1}, 1, 1, 1, 1)
	out := Conv2d(x, w, nil, ConvSpec{})
	if !out.Equal(x) {
		t.Fatalf("identity conv = %v", out)
	}
}

func TestConv2dHandComputed(t *testing.T) {
	// 3x3 input, 2x2 kernel, stride 1, no pad.
	x := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	w := FromSlice([]float32{
		1, 0,
		0, -1,
	}, 1, 1, 2, 2)
	out := Conv2d(x, w, nil, ConvSpec{})
	want := FromSlice([]float32{
		1 - 5, 2 - 6,
		4 - 8, 5 - 9,
	}, 1, 1, 2, 2)
	if !out.Equal(want) {
		t.Fatalf("conv = %v, want %v", out, want)
	}
}

func TestConv2dBias(t *testing.T) {
	x := FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	w := FromSlice([]float32{1}, 1, 1, 1, 1)
	b := FromSlice([]float32{10}, 1)
	out := Conv2d(x, w, b, ConvSpec{})
	if out.At(0, 0, 1, 1) != 11 {
		t.Fatalf("conv+bias = %v", out)
	}
}

func TestConv2dPadding(t *testing.T) {
	// With pad 1 and a 3x3 sum kernel, corner output = sum of the 2x2
	// in-bounds region.
	x := Ones(1, 1, 2, 2)
	w := Ones(1, 1, 3, 3)
	out := Conv2d(x, w, nil, ConvSpec{PadH: 1, PadW: 1})
	if !sameShape(out.Shape(), []int{1, 1, 2, 2}) {
		t.Fatalf("pad output shape %v", out.Shape())
	}
	if out.At(0, 0, 0, 0) != 4 {
		t.Fatalf("corner = %g, want 4", out.At(0, 0, 0, 0))
	}
}

func TestConv2dStride(t *testing.T) {
	x := Arange(0, 1, 16).Reshape(1, 1, 4, 4)
	w := FromSlice([]float32{1}, 1, 1, 1, 1)
	out := Conv2d(x, w, nil, ConvSpec{StrideH: 2, StrideW: 2})
	want := FromSlice([]float32{0, 2, 8, 10}, 1, 1, 2, 2)
	if !out.Equal(want) {
		t.Fatalf("strided conv = %v", out)
	}
}

var (
	inf32 = float32(math.Inf(1))
	nan32 = float32(math.NaN())
)

// plantWeights overwrites two random elements of w with each of vals.
func plantWeights(rng *rand.Rand, w *Tensor, vals []float32) {
	for _, v := range vals {
		for i := 0; i < 2; i++ {
			w.data[rng.Intn(len(w.data))] = v
		}
	}
}

func TestConv2dMatchesNaive(t *testing.T) {
	tests := []struct {
		name         string
		n, c, h, w   int
		cout, kh, kw int
		spec         ConvSpec
		faults       []float32 // planted into the weights, see plantWeights
	}{
		{"basic", 2, 3, 8, 8, 4, 3, 3, ConvSpec{PadH: 1, PadW: 1}, nil},
		{"stride2", 1, 3, 9, 9, 5, 3, 3, ConvSpec{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, nil},
		{"asymmetric-kernel", 1, 2, 7, 9, 3, 1, 5, ConvSpec{PadW: 2}, nil},
		{"grouped", 1, 4, 6, 6, 8, 3, 3, ConvSpec{PadH: 1, PadW: 1, Groups: 2}, nil},
		{"depthwise", 2, 6, 5, 5, 6, 3, 3, ConvSpec{PadH: 1, PadW: 1, Groups: 6}, nil},
		{"1x1", 2, 8, 4, 4, 16, 1, 1, ConvSpec{}, nil},
		// The in-place pointwise path (wide enough for the blocked GEMM,
		// and grouped) and its strided neighbour, which must im2col.
		{"1x1-wide", 1, 24, 8, 8, 12, 1, 1, ConvSpec{}, nil},
		{"1x1-grouped", 2, 8, 6, 6, 8, 1, 1, ConvSpec{Groups: 2}, nil},
		{"1x1-stride2", 1, 24, 8, 8, 12, 1, 1, ConvSpec{StrideH: 2, StrideW: 2}, nil},
		// Weights a fault campaign reaches: Inf or NaN times a pad tap is
		// NaN, so the reference must form the pad products too.
		{"inf-weights", 2, 3, 8, 8, 4, 3, 3, ConvSpec{PadH: 1, PadW: 1}, []float32{inf32, -inf32}},
		{"nan-weights", 1, 4, 9, 9, 5, 3, 3, ConvSpec{PadH: 1, PadW: 1}, []float32{nan32}},
		{"inf-weights-strided", 1, 3, 9, 9, 5, 3, 3, ConvSpec{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, []float32{inf32}},
	}
	rng := rand.New(rand.NewSource(42))
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec.Canon()
			x := RandUniform(rng, -1, 1, tc.n, tc.c, tc.h, tc.w)
			w := RandUniform(rng, -1, 1, tc.cout, tc.c/spec.Groups, tc.kh, tc.kw)
			plantWeights(rng, w, tc.faults)
			b := RandUniform(rng, -1, 1, tc.cout)
			got := Conv2d(x, w, b, spec)
			want := naiveConv2d(x, w, b, spec)
			// Same chains, same products: equality is exact, not
			// approximate.
			for i, v := range got.Data() {
				if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
					t.Fatalf("conv[%d] = %g, naive reference %g", i, v, want.Data()[i])
				}
			}
		})
	}
}

func TestConv2dSerialParallelAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := RandUniform(rng, -1, 1, 2, 4, 10, 10)
	w := RandUniform(rng, -1, 1, 8, 4, 3, 3)
	prev := SetWorkers(1)
	serial := Conv2d(x, w, nil, ConvSpec{PadH: 1, PadW: 1})
	SetWorkers(8)
	parallel := Conv2d(x, w, nil, ConvSpec{PadH: 1, PadW: 1})
	SetWorkers(prev)
	if !serial.AllClose(parallel, 1e-6) {
		t.Fatal("serial and parallel backends disagree")
	}
}

func TestConvOutShape(t *testing.T) {
	got := ConvOutShape([]int{2, 3, 32, 32}, []int{16, 3, 3, 3}, ConvSpec{PadH: 1, PadW: 1})
	want := []int{2, 16, 32, 32}
	if !sameShape(got, want) {
		t.Fatalf("ConvOutShape = %v, want %v", got, want)
	}
}

func TestConv2dShapePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"rank3-input", func() { Conv2d(New(1, 2, 3), New(1, 2, 1, 1), nil, ConvSpec{}) }},
		{"channel-mismatch", func() { Conv2d(New(1, 3, 4, 4), New(2, 4, 1, 1), nil, ConvSpec{}) }},
		{"bad-groups", func() { Conv2d(New(1, 3, 4, 4), New(2, 1, 1, 1), nil, ConvSpec{Groups: 2}) }},
		{"bias-shape", func() { Conv2d(New(1, 1, 4, 4), New(2, 1, 1, 1), New(3), ConvSpec{}) }},
		{"kernel-too-big", func() { Conv2d(New(1, 1, 2, 2), New(1, 1, 5, 5), nil, ConvSpec{}) }},
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

// numericalGradCheck validates Conv2dBackward against finite differences
// on a small problem.
func TestConv2dBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spec := ConvSpec{PadH: 1, PadW: 1, StrideH: 2, StrideW: 2}.Canon()
	x := RandUniform(rng, -1, 1, 1, 2, 5, 5)
	w := RandUniform(rng, -1, 1, 3, 2, 3, 3)
	b := RandUniform(rng, -1, 1, 3)

	// Loss = sum of outputs; dL/dout = ones.
	out := Conv2d(x, w, b, spec)
	gradOut := Ones(out.Shape()...)
	grads := Conv2dBackward(x, w, true, gradOut, spec, true)

	const eps = 1e-2
	const tol = 2e-2
	check := func(name string, param *Tensor, grad *Tensor) {
		for i := 0; i < param.Len(); i++ {
			orig := param.AtFlat(i)
			param.SetFlat(i, orig+eps)
			up := Conv2d(x, w, b, spec).Sum()
			param.SetFlat(i, orig-eps)
			down := Conv2d(x, w, b, spec).Sum()
			param.SetFlat(i, orig)
			numeric := float32((up - down) / (2 * eps))
			analytic := grad.AtFlat(i)
			d := numeric - analytic
			if d < 0 {
				d = -d
			}
			if d > tol {
				t.Fatalf("%s grad[%d]: analytic %g vs numeric %g", name, i, analytic, numeric)
			}
		}
	}
	check("weight", w, grads.Weight)
	check("bias", b, grads.Bias)
	check("input", x, grads.Input)
}

func TestConv2dBackwardGrouped(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	spec := ConvSpec{PadH: 1, PadW: 1, Groups: 2}.Canon()
	x := RandUniform(rng, -1, 1, 1, 4, 4, 4)
	w := RandUniform(rng, -1, 1, 4, 2, 3, 3)
	out := Conv2d(x, w, nil, spec)
	gradOut := Ones(out.Shape()...)
	grads := Conv2dBackward(x, w, false, gradOut, spec, true)
	if grads.Bias != nil {
		t.Fatal("bias grad must be nil when hasBias=false")
	}
	const eps, tol = 1e-2, 2e-2
	for i := 0; i < w.Len(); i += 7 { // spot-check
		orig := w.AtFlat(i)
		w.SetFlat(i, orig+eps)
		up := Conv2d(x, w, nil, spec).Sum()
		w.SetFlat(i, orig-eps)
		down := Conv2d(x, w, nil, spec).Sum()
		w.SetFlat(i, orig)
		numeric := float32((up - down) / (2 * eps))
		d := numeric - grads.Weight.AtFlat(i)
		if d < 0 {
			d = -d
		}
		if d > tol {
			t.Fatalf("grouped weight grad[%d]: analytic %g vs numeric %g", i, grads.Weight.AtFlat(i), numeric)
		}
	}
}

func TestConv2dBackwardSkipInput(t *testing.T) {
	x := Ones(1, 1, 3, 3)
	w := Ones(1, 1, 2, 2)
	out := Conv2d(x, w, nil, ConvSpec{})
	grads := Conv2dBackward(x, w, false, Ones(out.Shape()...), ConvSpec{}, false)
	if grads.Input != nil {
		t.Fatal("Input grad must be nil when needInput=false")
	}
	if grads.Weight == nil {
		t.Fatal("Weight grad missing")
	}
}

// Property: convolution is linear in the input —
// conv(a*x1 + x2) == a*conv(x1) + conv(x2) (no bias).
func TestConvLinearity_Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x1 := RandUniform(rng, -1, 1, 1, 2, 6, 6)
		x2 := RandUniform(rng, -1, 1, 1, 2, 6, 6)
		w := RandUniform(rng, -1, 1, 3, 2, 3, 3)
		a := rng.Float32()*4 - 2
		spec := ConvSpec{PadH: 1, PadW: 1}
		lhs := Conv2d(AddInPlace(Scale(x1, a), x2), w, nil, spec)
		rhs := AddInPlace(Scale(Conv2d(x1, w, nil, spec), a), Conv2d(x2, w, nil, spec))
		return lhs.AllClose(rhs, 1e-3)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestConvWorkerCountBitIdentical is the conv half of the determinism
// contract: forward and backward must produce bit-for-bit identical
// results at every worker count, not merely AllClose. The kernel
// backend may only change WHICH goroutine computes an output element,
// never the order of its k-chain.
func TestConvWorkerCountBitIdentical(t *testing.T) {
	cases := []struct {
		name       string
		n, c, h, w int
		cout, k    int
		spec       ConvSpec
	}{
		{"alex-early", 2, 3, 32, 32, 16, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"strided", 1, 4, 17, 17, 8, 5, ConvSpec{PadH: 2, PadW: 2, StrideH: 2, StrideW: 2}},
		{"grouped", 3, 8, 9, 9, 8, 3, ConvSpec{PadH: 1, PadW: 1, Groups: 4}},
		{"batch-heavy", 8, 2, 7, 7, 4, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"pointwise", 8, 24, 8, 8, 12, 1, ConvSpec{}},
		{"pointwise-stride2", 2, 24, 8, 8, 12, 1, ConvSpec{StrideH: 2, StrideW: 2}},
		// DenseNet dense-layer convs, on the direct lowering.
		{"dense-32x32", 1, 40, 32, 32, 8, 3, ConvSpec{PadH: 1, PadW: 1}},
		{"dense-8x8", 1, 52, 8, 8, 8, 3, ConvSpec{PadH: 1, PadW: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			x := RandUniform(rng, -1, 1, tc.n, tc.c, tc.h, tc.w)
			wt := RandUniform(rng, -1, 1, tc.cout, tc.c/tc.spec.Canon().Groups, tc.k, tc.k)
			b := RandUniform(rng, -1, 1, tc.cout)

			prev := SetWorkers(1)
			defer SetWorkers(prev)
			ref := Conv2d(x, wt, b, tc.spec)
			gradOut := RandUniform(rng, -1, 1, ref.Shape()...)
			refG := Conv2dBackward(x, wt, true, gradOut, tc.spec, true)

			for _, workers := range []int{4, 8} {
				SetWorkers(workers)
				got := Conv2d(x, wt, b, tc.spec)
				for i, v := range got.Data() {
					if math.Float32bits(v) != math.Float32bits(ref.Data()[i]) {
						t.Fatalf("Workers=%d forward[%d] = %g, Workers=1 %g", workers, i, v, ref.Data()[i])
					}
				}
				gotG := Conv2dBackward(x, wt, true, gradOut, tc.spec, true)
				for pair, gw := range map[string][2]*Tensor{
					"weight": {gotG.Weight, refG.Weight},
					"bias":   {gotG.Bias, refG.Bias},
					"input":  {gotG.Input, refG.Input},
				} {
					for i, v := range gw[0].Data() {
						if math.Float32bits(v) != math.Float32bits(gw[1].Data()[i]) {
							t.Fatalf("Workers=%d %s grad[%d] = %g, Workers=1 %g", workers, pair, i, v, gw[1].Data()[i])
						}
					}
				}
			}
		})
	}
}
