package nn

import (
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname

	"gofi/internal/tensor"
)

// gemmAVX2 is internal/tensor's kernel gate, reached here so a test can
// run a whole model on the scalar kernels. tensor exports no switch for
// it on purpose: both tiers give the same bits, so no caller needs one.
//
//go:linkname gemmAVX2 gofi/internal/tensor.gemmAVX2
var gemmAVX2 bool

// TestEvalForwardMatchesScalarKernels: denseFixture's eval forward — conv
// GEMMs, im2col, eval BatchNorm, ReLU, the 2×2 average pool, concat —
// gives the same logits bit for bit on the AVX2 kernels and on a copy of
// the model with every kernel forced scalar, over two forwards on reused
// output buffers, at plane sizes whose rows are (8) and are not (9)
// multiples of the 8-lane elementwise kernels.
func TestEvalForwardMatchesScalarKernels(t *testing.T) {
	if !gemmAVX2 {
		t.Skip("no AVX2 tier in this build; the scalar kernels are the only ones")
	}
	defer func() { gemmAVX2 = true }()
	rng := rand.New(rand.NewSource(97))
	for _, size := range []int{8, 9} {
		vector, scalar := denseFixture(101), denseFixture(101)
		SetOutputReuse(vector, true)
		SetOutputReuse(scalar, true)
		for pass := 0; pass < 2; pass++ {
			x := tensor.RandUniform(rng, -2, 2, 2, 3, size, size)
			x.Data()[0] = float32(math.Copysign(0, -1))
			gemmAVX2 = true
			want := Run(vector, x).Clone()
			gemmAVX2 = false
			got := Run(scalar, x)
			for i, v := range want.Data() {
				if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
					t.Fatalf("size %d forward %d: logit %d = %#08x on scalar kernels, %#08x on AVX2", size, pass, i, math.Float32bits(got.Data()[i]), math.Float32bits(v))
				}
			}
		}
	}
}
