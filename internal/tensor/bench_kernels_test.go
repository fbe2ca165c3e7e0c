package tensor

import (
	"math/rand"
	"testing"
)

// Kernel benchmarks across paper-relevant shapes. The conv shapes mirror
// the AlexNet-style stacks the Figure 3/4 studies run at 32×32: an early
// layer (few input channels, large spatial extent) and a late layer (many
// channels, small extent). BENCH_kernels.json records these before and
// after the blocked-GEMM backend landed.

func benchGEMM(b *testing.B, m, k, n int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	a := RandUniform(rng, -1, 1, m, k)
	bb := RandUniform(rng, -1, 1, k, n)
	b.SetBytes(int64(2 * m * k * n * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, bb)
	}
}

func BenchmarkGEMM_Square256(b *testing.B)  { benchGEMM(b, 256, 256, 256) }
func BenchmarkGEMM_ConvEarly(b *testing.B)  { benchGEMM(b, 16, 27, 1024) }
func BenchmarkGEMM_ConvMid(b *testing.B)    { benchGEMM(b, 32, 144, 256) }
func BenchmarkGEMM_ConvLate(b *testing.B)   { benchGEMM(b, 48, 432, 64) }
func BenchmarkGEMM_LinearHead(b *testing.B) { benchGEMM(b, 32, 512, 10) }

// The weight-gradient kernel walks Aᵀ; before the packed backend this was
// a strided (cache-hostile) column walk.
func BenchmarkGEMM_TransA_WeightGrad(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	k, m, n := 32, 432, 256 // dW = gOutᵀ-shaped: A [coutG, l]ᵀ × B [coutG, kdim]
	a := RandUniform(rng, -1, 1, k, m)
	bb := RandUniform(rng, -1, 1, k, n)
	dst := New(m, n)
	b.SetBytes(int64(2 * m * k * n * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		MatMulTransAAcc(dst, a, bb)
	}
}

func BenchmarkGEMM_TransB_InputGrad(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m, k, n := 32, 256, 432
	a := RandUniform(rng, -1, 1, m, k)
	bb := RandUniform(rng, -1, 1, n, k)
	dst := New(m, n)
	b.SetBytes(int64(2 * m * k * n * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransB(dst, a, bb)
	}
}

func benchConvForward(b *testing.B, batch, cin, cout, size, kernel, stride, pad, groups int) {
	b.Helper()
	rng := rand.New(rand.NewSource(4))
	x := RandUniform(rng, -1, 1, batch, cin, size, size)
	w := RandUniform(rng, -1, 1, cout, cin/max1(groups), kernel, kernel)
	bias := RandUniform(rng, -1, 1, cout)
	spec := ConvSpec{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad, Groups: groups}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2d(x, w, bias, spec)
	}
}

func max1(g int) int {
	if g < 1 {
		return 1
	}
	return g
}

// AlexNet-style early layer: 3→16 channels over 32×32.
func BenchmarkConvForward_AlexEarly(b *testing.B) { benchConvForward(b, 1, 3, 16, 32, 3, 1, 1, 1) }

// AlexNet-style late layer: 48→48 channels over 8×8.
func BenchmarkConvForward_AlexLate(b *testing.B) { benchConvForward(b, 1, 48, 48, 8, 3, 1, 1, 1) }

// The large-GEMM conv case: per-sample GEMM is 64×576×256.
func BenchmarkConvForward_Large(b *testing.B) { benchConvForward(b, 2, 64, 64, 16, 3, 1, 1, 1) }

// Grouped/depthwise shape (MobileNet-style): many tiny GEMMs.
func BenchmarkConvForward_Depthwise(b *testing.B) { benchConvForward(b, 1, 32, 32, 16, 3, 1, 1, 32) }

// Batched early layer: the N×groups parallel axis has 8 units of work.
func BenchmarkConvForward_Batch8(b *testing.B) { benchConvForward(b, 8, 16, 32, 16, 3, 1, 1, 1) }

// 1×1 stride-1 unpadded (DenseNet transition): the GEMM reads the image
// slab in place, no im2col.
func BenchmarkConvForward_Pointwise(b *testing.B) { benchConvForward(b, 1, 48, 24, 16, 1, 1, 0, 1) }

// Unpadded 5×5 (LeNet-style), OW != W: im2col's per-row copy path.
func BenchmarkConvForward_Unpadded(b *testing.B) { benchConvForward(b, 1, 16, 32, 16, 5, 1, 0, 1) }

// Stride-2 downsampling conv: im2col's strided per-tap fallback.
func BenchmarkConvForward_Strided(b *testing.B) { benchConvForward(b, 1, 32, 64, 16, 3, 2, 1, 1) }

// DenseNet dense-layer conv: 40→8 channels, 3×3/pad 1 over 32×32, a
// [8, 360] × [360, 1024] GEMM per sample — the direct lowering's shape.
func BenchmarkConvForward_DenseLayer(b *testing.B) { benchConvForward(b, 1, 40, 8, 32, 3, 1, 1, 1) }

// 3×3/pad 1 over a 4×4 map (ResNet-18 stage 4): the virtual columns would
// double the GEMM, so it stays on im2col + the packed GEMM.
func BenchmarkConvForward_Tiny4x4(b *testing.B) { benchConvForward(b, 1, 128, 128, 4, 3, 1, 1, 1) }

// The ResNet-18 stage-4 and stage-3 convs of the Fig. 3 overhead
// workload at its batch of 8: one unit per sample, each reading the same
// 128×1152 (64×576) weights as its A. Stage 4's 4×4 map stays on im2col;
// stage 3's 8×8 map runs the direct lowering.
func BenchmarkConvForward_Batch8Tiny4x4(b *testing.B) {
	benchConvForward(b, 8, 128, 128, 4, 3, 1, 1, 1)
}

func BenchmarkConvForward_Batch8Stage3(b *testing.B) {
	benchConvForward(b, 8, 64, 64, 8, 3, 1, 1, 1)
}

// benchConvInt8Forward times Conv2dInt8Into as a quantized model runs
// it: per-channel weight codes with their row sums and their panels
// packed once, an asymmetric input quantizer, the output snap on.
func benchConvInt8Forward(b *testing.B, cin, cout, size, kernel, pad int) {
	b.Helper()
	rng := rand.New(rand.NewSource(6))
	x := RandUniform(rng, 0, 1, 1, cin, size, size)
	wShape := []int{cout, cin, kernel, kernel}
	wq := make([]int8, cout*cin*kernel*kernel)
	QuantizeI8Into(wq, RandUniform(rng, -1, 1, wShape...).Data(), 1.0/127, 0)
	qp := QuantParams{InScale: 1.0 / 255, InZP: -128, WScales: make([]float32, cout), RowSums: make([]int32, cout), OutScale: 1.0 / 32}
	per := len(wq) / cout
	for oc := range qp.WScales {
		qp.WScales[oc] = 1.0 / 127
		for _, c := range wq[oc*per : (oc+1)*per] {
			qp.RowSums[oc] += int32(c)
		}
	}
	qp.Panels = PackPanelsI8(wq, cout, 1)
	spec := ConvSpec{PadH: pad, PadW: pad}
	dst := New(ConvOutShape(x.Shape(), wShape, spec)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2dInt8Into(dst, x, wq, wShape, qp, spec)
	}
}

// The DenseNet shapes of the int8 forward: a dense layer's 3×3 conv at
// 32×32 (40→8, kdim 360 past one gemmKC chunk) and at 8×8 (52→8), both
// on the direct lowering, and a transition's 1×1 conv at 32×32 (48→24),
// which stays on the packed GEMM over its in-place slab.
func BenchmarkConvInt8Forward_DenseLayer(b *testing.B) { benchConvInt8Forward(b, 40, 8, 32, 3, 1) }
func BenchmarkConvInt8Forward_Dense8x8(b *testing.B)   { benchConvInt8Forward(b, 52, 8, 8, 3, 1) }
func BenchmarkConvInt8Forward_Transition(b *testing.B) { benchConvInt8Forward(b, 48, 24, 32, 1, 0) }

func BenchmarkConvBackward_AlexLate(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := RandUniform(rng, -1, 1, 1, 48, 8, 8)
	w := RandUniform(rng, -1, 1, 48, 48, 3, 3)
	spec := ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
	gradOut := RandUniform(rng, -1, 1, ConvOutShape(x.Shape(), w.Shape(), spec)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2dBackward(x, w, true, gradOut, spec, true)
	}
}
