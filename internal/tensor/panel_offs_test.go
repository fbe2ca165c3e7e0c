package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// offsetTableShapes are the packed-path shapes the panelOffs table and
// the panel strides are checked on: k on both sides of one and two
// gemmKC chunks (odd k pads a pair on int8), m with every row remainder
// mod gemmMR, and n off the gemmNR grid so edge panels follow full ones.
func offsetTableShapes() (ks, ms, ns []int) {
	return []int{gemmKC - 1, gemmKC, gemmKC + 1, 2*gemmKC + 1}, []int{9, 18, 39}, []int{37, 70}
}

// eachKernelPath runs fn at one and four workers, on each kernel path
// withKernelPaths selects.
func eachKernelPath(t *testing.T, fn func(t *testing.T)) {
	defer SetWorkers(SetWorkers(1))
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		withKernelPaths(t, func(path string) {
			t.Run(fmt.Sprintf("workers%d/%s", workers, path), fn)
		})
	}
}

// TestPackedPathMatchesNaive pins the packed-panel path — B panels read
// through panelOffs by the one micro-kernel per backend — to the naive
// reference: float32 GEMMs under all four transpose variants (bit-exact
// chains), and the int8 linear and 1×1 conv forwards, pointwise and
// strided, whose int32 sums must match exactly.
func TestPackedPathMatchesNaive(t *testing.T) {
	ks, ms, ns := offsetTableShapes()
	eachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(73))
		for _, k := range ks {
			for _, m := range ms {
				for _, n := range ns {
					for _, trans := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
						gemmCase(t, rng, m, k, n, trans[0], trans[1], rng.Intn(2) == 0)
					}
					checkLinearInt8(t, rng, m, k, n)
					checkConvInt8Packed(t, rng, m, k, n, 1)
					checkConvInt8Packed(t, rng, m, k, n, 2)
				}
			}
		}
	})
}

// TestInPlaceAMatchesNaive pins the float32 kernels' in-place A — element
// (r, p) at a[r·ars + p·aps] — to the naive reference, bit for bit, with
// A a sub-matrix of a wider one: lda > k for row-major A and lda > m
// under transA, so swapped strides cannot pass, and the columns past the
// sub-matrix hold NaN, so a read outside it shows. m covers single rows,
// every row remainder (kern1x16Ind) and row splits past one gemmMC
// block; k both sides of one and two gemmKC chunks; n = 70 ends on an
// edge tile (kernEdge).
func TestInPlaceAMatchesNaive(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(79))
		for _, k := range []int{gemmKC - 1, gemmKC, gemmKC + 1, 2*gemmKC + 1} {
			for _, m := range []int{1, 3, 4, 5, 97, 130} {
				for _, trans := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
					gemmSubMatrixCase(t, rng, m, k, 70, trans[0], trans[1], rng.Intn(2) == 0)
				}
			}
		}
	})
}

// gemmSubMatrixCase runs one GEMM whose A is the leading [m, k] (or, with
// transA, [k, m]) block of a wider matrix through gemmParallel and
// requires the naive reference's bits.
func gemmSubMatrixCase(t *testing.T, rng *rand.Rand, m, k, n int, transA, transB, acc bool) {
	t.Helper()
	rows, cols := m, k
	if transA {
		rows, cols = k, m
	}
	lda := cols + 3
	a := make([]float32, rows*lda)
	for i := range a {
		a[i] = nan32
	}
	for r := 0; r < rows; r++ {
		fillRand(rng, a[r*lda:r*lda+cols])
	}
	ldb := n
	if transB {
		ldb = k
	}
	b := make([]float32, k*n)
	fillRand(rng, b)
	got, want := make([]float32, m*n), make([]float32, m*n)
	fillRand(rng, got)
	copy(want, got)
	gemmParallel(f32Kernels, f32Op{dst: got, ldc: n, a: a, lda: lda, transA: transA, b: b, ldb: ldb, transB: transB, m: m, k: k, n: n, acc: acc})
	gemmNaive(want, n, a, lda, transA, b, ldb, transB, m, k, n, acc)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("m=%d k=%d n=%d lda=%d transA=%v transB=%v acc=%v: dst[%d] = %v, naive %v",
				m, k, n, lda, transA, transB, acc, i, got[i], want[i])
		}
	}
}

// TestInPlaceAReadPastEndPanics pins the guard in front of the unchecked
// assembly reads of A: a tile whose last A element lies past ap panics
// before any kernel reads it, on either kernel tier.
func TestInPlaceAReadPastEndPanics(t *testing.T) {
	const kb = 8
	c, base := make([]float32, gemmMR*gemmNR), make([]float32, kb*gemmNR)
	requirePanic := func(t *testing.T, what string, fn func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "operand A reads past its end") {
				t.Fatalf("%s: recovered %q, want the in-place A guard", what, msg)
			}
		}()
		fn()
	}
	withKernelPaths(t, func(path string) {
		// Row-major and transposed strides; each A is one element short
		// of the tile's last.
		for _, st := range [][2]int{{9, 1}, {1, 9}} {
			ars, aps := st[0], st[1]
			short := make([]float32, (gemmMR-1)*ars+(kb-1)*aps)
			what := fmt.Sprintf("%s ars=%d aps=%d", path, ars, aps)
			requirePanic(t, what+" kern4x16Ind", func() { kern4x16Ind(c, gemmNR, short, ars, aps, base, panelOffs[:], kb, true) })
			requirePanic(t, what+" kern1x16Ind", func() { kern1x16Ind(c, short[:(kb-1)*aps], aps, base, panelOffs[:], kb, true) })
		}
	})
}

// powerOfTwoQuant returns quantization params whose fold is exact — every
// scale 1/64, no bias — so each output is the exact image of its int32
// accumulator, with rowSum the per-channel code sums of wq [out, k].
func powerOfTwoQuant(wq []int8, out int, zp int8) QuantParams {
	qp := QuantParams{InScale: 1.0 / 64, InZP: zp, WScales: make([]float32, out), RowSums: make([]int32, out)}
	k := len(wq) / out
	for oc := range qp.WScales {
		qp.WScales[oc] = 1.0 / 64
		for _, c := range wq[oc*k : (oc+1)*k] {
			qp.RowSums[oc] += int32(c)
		}
	}
	return qp
}

// checkLinearInt8 runs LinearInt8Into on an [m, k] input against [n, k]
// codes and requires the naive int8 GEMM's fold.
func checkLinearInt8(t *testing.T, rng *rand.Rand, m, k, n int) {
	t.Helper()
	x := RandUniform(rng, -2, 2, m, k)
	wq := randCodes(rng, n*k)
	qp := powerOfTwoQuant(wq, n, int8(rng.Intn(256)-128))
	got := New(m, n)
	LinearInt8Into(got, x, wq, qp)

	xq := make([]int8, m*k)
	QuantizeI8Into(xq, x.data, qp.InScale, qp.InZP)
	acc := make([]int32, m*n)
	gemmI8Naive(acc, n, xq, k, wq, k, true, m, k, n)
	for i, a := range acc {
		corr, scale, bias := qp.fold(i % n)
		if want := requantI8(a, corr, scale, bias, 0); got.data[i] != want {
			t.Fatalf("LinearInt8Into m=%d k=%d n=%d: element %d = %g, want %g", m, k, n, i, got.data[i], want)
		}
	}
}

// checkConvInt8Packed runs a 1×1 Conv2dInt8Into of cout = m channels
// over k input channels at stride 1 (pointwise: the slab is B) or 2
// (im2col), with at least n output pixels off the gemmNR grid, and
// requires the naive int8 GEMM over the column matrix built here.
func checkConvInt8Packed(t *testing.T, rng *rand.Rand, m, k, n, stride int) {
	t.Helper()
	oh, ow := 5, (n+4)/5
	h, w := (oh-1)*stride+1, (ow-1)*stride+1
	spec := ConvSpec{StrideH: stride, StrideW: stride}
	x := RandUniform(rng, -2, 2, 1, k, h, w)
	wq := randCodes(rng, m*k)
	qp := powerOfTwoQuant(wq, m, int8(rng.Intn(256)-128))
	got := New(1, m, oh, ow)
	Conv2dInt8Into(got, x, wq, []int{m, k, 1, 1}, qp, spec)

	xq := make([]int8, len(x.data))
	QuantizeI8Into(xq, x.data, qp.InScale, qp.InZP)
	l := oh * ow
	col := make([]int8, k*l)
	for c := 0; c < k; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				col[c*l+oy*ow+ox] = xq[(c*h+oy*stride)*w+ox*stride]
			}
		}
	}
	acc := make([]int32, m*l)
	gemmI8Naive(acc, l, wq, k, col, l, false, m, k, l)
	for i, a := range acc {
		corr, scale, bias := qp.fold(i / l)
		if want := requantI8(a, corr, scale, bias, 0); got.data[i] != want {
			t.Fatalf("Conv2dInt8Into 1x1 stride %d m=%d k=%d l=%d: element %d = %g, want %g", stride, m, k, l, i, got.data[i], want)
		}
	}
}
