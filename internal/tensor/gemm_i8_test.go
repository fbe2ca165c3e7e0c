package tensor

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func randI8(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(rng.Intn(255) - 127) // [-127, 127]
	}
	return s
}

// panelsOf returns the A panels of the row-major int8 matrix a with m
// rows: the only form the blocked int8 GEMM reads A in.
func panelsOf(a []int8, m int) []int16 { return PackPanelsI8(a, m, 1).data }

// gemmI8Naive is the int8 reference: the obvious triple loop over int8
// operands with an int32 accumulator per element. A[i,p] = a[i*lda+p];
// B[p,j] = b[p*ldb+j], or b[j*ldb+p] when transB.
func gemmI8Naive(dst []int32, ldc int, a []int8, lda int, b []int8, ldb int, transB bool, m, k, n int) {
	for i := 0; i < m; i++ {
		drow := dst[i*ldc : i*ldc+n]
		for j := 0; j < n; j++ {
			var s int32
			for p := 0; p < k; p++ {
				var bv int8
				if transB {
					bv = b[j*ldb+p]
				} else {
					bv = b[p*ldb+j]
				}
				s += int32(a[i*lda+p]) * int32(bv)
			}
			drow[j] = s
		}
	}
}

// TestGemmI8BlockedMatchesNaive drives the blocked int8 path over
// randomized shapes — including tile edges, odd k (pair padding), and
// multi-chunk k — and requires exact equality with the naive reference.
func TestGemmI8BlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1},
		{4, 16, 16},
		{5, 17, 33},   // edge rows, odd k, edge cols
		{12, 27, 100}, // conv-like: small m, odd k
		{3, 9, 257},   // wide, crosses gemmNC? no, crosses nr tiles
		{96, 256, 64},
		{100, 300, 530}, // crosses MC, KC, NC
		{8, 513, 48},    // two k-chunks + odd tail
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, transB := range []bool{false, true} {
			a := randI8(rng, m*k)
			var b []int8
			ldb := n
			if transB {
				b = randI8(rng, n*k)
				ldb = k
			} else {
				b = randI8(rng, k*n)
			}
			want := make([]int32, m*n)
			gemmI8Naive(want, n, a, k, b, ldb, transB, m, k, n)

			got := make([]int32, m*n)
			var sc scratch
			op := i8Op{dst: got, ldc: n, a: a, lda: k, panels: panelsOf(a, m), b: b, ldb: ldb, transB: transB, m: m, k: k, n: n}
			gemmReserve(i8Kernels, &sc, &op)
			gemmSerial(i8Kernels, &op, &sc)
			sc.release()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("m=%d k=%d n=%d transB=%v: element %d = %d, want %d", m, k, n, transB, i, got[i], want[i])
				}
			}

			// Parallel column split must be identical too.
			old := SetWorkers(4)
			gotPar := make([]int32, m*n)
			gemmParallel(i8Kernels, i8Op{dst: gotPar, ldc: n, a: a, lda: k, panels: panelsOf(a, m), b: b, ldb: ldb, transB: transB, m: m, k: k, n: n})
			SetWorkers(old)
			for i := range want {
				if gotPar[i] != want[i] {
					t.Fatalf("parallel m=%d k=%d n=%d transB=%v: element %d = %d, want %d", m, k, n, transB, i, gotPar[i], want[i])
				}
			}
		}
	}
}

// TestGemmI8RandomizedShapes_Property fuzzes shapes more densely than the
// table above: 200 random (m, k, n) triples, all exact-equal to naive.
func TestGemmI8RandomizedShapes_Property(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		m := rng.Intn(40) + 1
		k := rng.Intn(80) + 1
		n := rng.Intn(120) + 1
		transB := rng.Intn(2) == 1
		a := randI8(rng, m*k)
		ldb := n
		var b []int8
		if transB {
			b = randI8(rng, n*k)
			ldb = k
		} else {
			b = randI8(rng, k*n)
		}
		want := make([]int32, m*n)
		gemmI8Naive(want, n, a, k, b, ldb, transB, m, k, n)
		got := make([]int32, m*n)
		var sc scratch
		op := i8Op{dst: got, ldc: n, a: a, lda: k, panels: panelsOf(a, m), b: b, ldb: ldb, transB: transB, m: m, k: k, n: n}
		gemmReserve(i8Kernels, &sc, &op)
		gemmSerial(i8Kernels, &op, &sc)
		sc.release()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d m=%d k=%d n=%d transB=%v: element %d = %d, want %d", iter, m, k, n, transB, i, got[i], want[i])
			}
		}
	}
}

// TestGemmI8WorkerCountIdentity pins the cross-worker determinism
// contract for the int8 backend: identical bits at 1, 2, 4, 8 workers, on
// both sides of every split threshold (the shapes of
// TestGEMMWorkerCountBitIdentical's).
func TestGemmI8WorkerCountIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	old := SetWorkers(1)
	defer SetWorkers(old)
	for _, sh := range [][3]int{{24, 128, 600}, {12, 400, 28}, {40, 300, 24}, {97, 200, 50}, {64, 300, 12}, {33, 300, 65}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randI8(rng, m*k)
		b := randI8(rng, k*n)
		ref := make([]int32, m*n)
		SetWorkers(1)
		gemmParallel(i8Kernels, i8Op{dst: ref, ldc: n, a: a, lda: k, panels: panelsOf(a, m), b: b, ldb: n, m: m, k: k, n: n})
		for _, w := range []int{2, 4, 8} {
			SetWorkers(w)
			got := make([]int32, m*n)
			gemmParallel(i8Kernels, i8Op{dst: got, ldc: n, a: a, lda: k, panels: panelsOf(a, m), b: b, ldb: n, m: m, k: k, n: n})
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("m=%d k=%d n=%d workers=%d: element %d = %d, want %d", m, k, n, w, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestGemmI8Accumulating: the int8 kernels take the shared driver's
// accumulate mode, with B plain or transposed. Small integer products are
// exact in float32, so the float32 naive reference over the same values
// is an exact oracle. An A without panels, which no int8 caller hands
// over, is rejected on the blocked path with a named message.
func TestGemmI8Accumulating(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	defer SetWorkers(SetWorkers(4))
	for _, sh := range [][3]int{{5, 7, 9}, {37, 261, 70}, {70, 100, 20}} {
		m, k, n := sh[0], sh[1], sh[2]
		for _, transB := range []bool{false, true} {
			a, b := randI8(rng, m*k), randI8(rng, k*n)
			ldb := n
			if transB {
				ldb = k
			}
			got := make([]int32, m*n)
			want := make([]float32, m*n)
			for i := range got {
				got[i] = int32(rng.Intn(201) - 100)
				want[i] = float32(got[i])
			}
			gemmParallel(i8Kernels, i8Op{dst: got, ldc: n, a: a, lda: k, panels: panelsOf(a, m), b: b, ldb: ldb, transB: transB, m: m, k: k, n: n, acc: true})
			af, bf := make([]float32, len(a)), make([]float32, len(b))
			for i, v := range a {
				af[i] = float32(v)
			}
			for i, v := range b {
				bf[i] = float32(v)
			}
			gemmNaive(want, n, af, k, false, bf, ldb, transB, m, k, n, true)
			for i := range got {
				if float32(got[i]) != want[i] {
					t.Fatalf("m=%d k=%d n=%d transB=%v: element %d = %d, want %g", m, k, n, transB, i, got[i], want[i])
				}
			}
		}
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "reads A from panels") {
			t.Fatalf("an A without panels must panic on the int8 blocked path naming the panels, got %q", r)
		}
	}()
	m, k, n := 37, 261, 70
	var sc scratch
	defer sc.release()
	gemmSerial(i8Kernels, &i8Op{dst: make([]int32, m*n), ldc: n, a: randI8(rng, m*k), lda: k, b: randI8(rng, k*n), ldb: n, m: m, k: k, n: n}, &sc)
}

// TestKernI8EdgeMatchesFullTilePath checks the padded edge kernel
// against naive on every (rows, cols) remainder combination.
func TestKernI8EdgeMatchesFullTilePath(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for rows := 1; rows <= gemmMR; rows++ {
		for cols := 1; cols <= gemmNR; cols++ {
			for _, kb := range []int{1, 2, 7, 32} {
				m, k, n := rows, kb, cols
				a := randI8(rng, m*k)
				b := randI8(rng, k*n)
				want := make([]int32, m*n)
				gemmI8Naive(want, n, a, k, b, n, false, m, k, n)

				kp := (kb + 1) / 2
				bpack := make([]int8, kp*2*gemmNR)
				apack := panelsOf(a, m)
				packBI8(bpack, b, n, false, 0, 0, kb, n)
				got := make([]int32, m*n)
				kernI8Edge(got, n, apack, bpack, rows, cols, kp, true)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("rows=%d cols=%d kb=%d: element %d = %d, want %d", rows, cols, kb, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestConv2dInt8WorkerCountIdentity: the quantized conv forward is
// bit-identical at every worker count (batched input so the unit loop
// actually fans out).
func TestConv2dInt8WorkerCountIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n, c, h, w := 8, 6, 14, 14
	cout, kh, kw := 10, 3, 3
	spec := ConvSpec{PadH: 1, PadW: 1}.Canon()
	x := RandUniform(rng, -1, 1, n, c, h, w)
	wq := randI8(rng, cout*c*kh*kw)
	qp := QuantParams{InScale: 1.0 / 64, InZP: -11, WScales: make([]float32, cout), RowSums: make([]int32, cout)}
	for oc := 0; oc < cout; oc++ {
		qp.WScales[oc] = float32(oc+1) / 300
		var s int32
		for _, v := range wq[oc*c*kh*kw : (oc+1)*c*kh*kw] {
			s += int32(v)
		}
		qp.RowSums[oc] = s
	}
	outShape := ConvOutShape(x.Shape(), []int{cout, c, kh, kw}, spec)

	ref := New(outShape...)
	old := SetWorkers(1)
	Conv2dInt8Into(ref, x, wq, []int{cout, c, kh, kw}, qp, spec)
	for _, workers := range []int{2, 4, 8} {
		SetWorkers(workers)
		got := New(outShape...)
		Conv2dInt8Into(got, x, wq, []int{cout, c, kh, kw}, qp, spec)
		if !ref.Equal(got) {
			t.Fatalf("workers=%d: conv int8 output differs from workers=1", workers)
		}
	}
	SetWorkers(old)
}

// TestConv2dInt8ZeroPointPadding: with a nonzero input zero-point, padded
// taps must contribute exactly nothing (the zp·rowSum correction), so a
// padded conv over a constant-zero input equals pure bias.
func TestConv2dInt8ZeroPointPadding(t *testing.T) {
	n, c, h, w := 1, 2, 5, 5
	cout, kh, kw := 3, 3, 3
	spec := ConvSpec{PadH: 1, PadW: 1}.Canon()
	x := New(n, c, h, w) // zeros
	rng := rand.New(rand.NewSource(23))
	wq := randI8(rng, cout*c*kh*kw)
	qp := QuantParams{
		InScale: 0.01, InZP: -127,
		WScales: []float32{0.02, 0.03, 0.04},
		RowSums: make([]int32, cout),
		Bias:    []float32{1, -2, 3},
	}
	for oc := 0; oc < cout; oc++ {
		var s int32
		for _, v := range wq[oc*c*kh*kw : (oc+1)*c*kh*kw] {
			s += int32(v)
		}
		qp.RowSums[oc] = s
	}
	out := New(ConvOutShape(x.Shape(), []int{cout, c, kh, kw}, spec)...)
	Conv2dInt8Into(out, x, wq, []int{cout, c, kh, kw}, qp, spec)
	l := out.Len() / cout
	for oc := 0; oc < cout; oc++ {
		for i := 0; i < l; i++ {
			if got := out.Data()[oc*l+i]; got != qp.Bias[oc] {
				t.Fatalf("channel %d pixel %d = %g, want bias %g (zero input must contribute nothing)", oc, i, got, qp.Bias[oc])
			}
		}
	}
}

// TestLinearInt8MatchesManual computes a tiny quantized linear layer by
// hand and checks the driver's fold.
func TestLinearInt8MatchesManual(t *testing.T) {
	x := FromSlice([]float32{0.5, -1, 0.25, 2}, 2, 2)
	wq := []int8{10, -20, 30, 40} // [out=2, in=2]
	qp := QuantParams{
		InScale: 0.25, InZP: 0,
		WScales: []float32{0.1, 0.2},
		RowSums: []int32{-10, 70},
		Bias:    []float32{0.5, -0.5},
	}
	dst := New(2, 2)
	LinearInt8Into(dst, x, wq, qp)
	// Quantized inputs: 0.5/0.25=2, -1/0.25=-4, 0.25/0.25=1, 2/0.25=8.
	// Row 0: acc = [2*10 + -4*-20, 2*30 + -4*40] = [100, -100]
	// out = acc*inScale*wScale + bias = [100*0.025+0.5, -100*0.05-0.5]
	want := []float32{100*0.25*0.1 + 0.5, -100*0.25*0.2 - 0.5, 0, 0}
	// Row 1: acc = [1*10 + 8*-20, 1*30 + 8*40] = [-150, 350]
	want[2] = -150*0.25*0.1 + 0.5
	want[3] = 350*0.25*0.2 - 0.5
	for i, w := range want {
		if got := dst.Data()[i]; got != w {
			t.Fatalf("element %d = %g, want %g", i, got, w)
		}
	}
}

// TestQuantizeI8IntoDegenerateScale: a non-positive scale maps everything
// to the zero-point (total, mirroring quant.Affine).
func TestQuantizeI8IntoDegenerateScale(t *testing.T) {
	dst := make([]int8, 3)
	QuantizeI8Into(dst, []float32{1, -2, 0}, 0, -5)
	for i, q := range dst {
		if q != -5 {
			t.Fatalf("element %d = %d, want zero-point -5", i, q)
		}
	}
}

// TestLinearInt8MatchesNaive pins LinearInt8Into — A the weight panels, B
// the quantized input read transposed — to a naive int32 reference folded
// by the same epilogue, bit for bit: batch rows on both sides of gemmNR
// (the small-problem loop and the blocked path), k across gemmKC and odd
// (the pair pad), units off whole panels and split by rows, with panels
// handed over and packed per call, at one and four workers on both kernel
// tiers.
func TestLinearInt8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	prev, saved := SetWorkers(1), gemmAVX2
	defer func() { SetWorkers(prev); gemmAVX2 = saved }()
	for _, rows := range []int{1, 3, 17} {
		for _, in := range []int{255, 256, 257, 513} {
			for _, out := range []int{1, 4, 128, 130} {
				x := RandUniform(rng, -2, 2, rows, in)
				wq := randCodes(rng, out*in)
				qp := QuantParams{InScale: 1.0 / 60, InZP: -9, WScales: make([]float32, out), RowSums: make([]int32, out),
					Bias: make([]float32, out), OutScale: 0.05}
				for oc := range qp.WScales {
					qp.WScales[oc], qp.Bias[oc] = float32(oc+1)/4096, float32(oc%7)-3
					for _, c := range wq[oc*in : (oc+1)*in] {
						qp.RowSums[oc] += int32(c)
					}
				}
				xq := make([]int8, rows*in)
				QuantizeI8Into(xq, x.Data(), qp.InScale, qp.InZP)
				want := New(rows, out)
				for i := 0; i < rows; i++ {
					for oc := 0; oc < out; oc++ {
						var acc int32
						for p := 0; p < in; p++ {
							acc += int32(wq[oc*in+p]) * int32(xq[i*in+p])
						}
						corr, scale, bias := qp.fold(oc)
						want.Data()[i*out+oc] = requantI8(acc, corr, scale, bias, qp.OutScale)
					}
				}
				withPanels := qp
				withPanels.Panels = PackPanelsI8(wq, out, 1)
				for _, workers := range []int{1, 4} {
					for _, scalar := range []bool{false, true} {
						SetWorkers(workers)
						gemmAVX2 = saved && !scalar
						for what, q := range map[string]QuantParams{"panels packed per call": qp, "panels handed over": withPanels} {
							got := New(rows, out)
							LinearInt8Into(got, x, wq, q)
							requireSameBits(t, fmt.Sprintf("rows=%d in=%d out=%d workers=%d scalar=%v, %s", rows, in, out, workers, scalar, what), got, want, false)
						}
					}
				}
			}
		}
	}
}

// TestInt8ShortBiasRejected: a bias shorter than the layer's output
// channels panics on the caller's goroutine, before any pool worker
// indexes it, with a message naming the mismatch — on both int8 entry
// points.
func TestInt8ShortBiasRejected(t *testing.T) {
	requireBiasPanic := func(name string, call func()) {
		t.Helper()
		defer func() {
			if r, _ := recover().(string); !strings.Contains(r, "bias length 2 does not match Cout=3") {
				t.Fatalf("%s: short bias panicked with %q", name, r)
			}
		}()
		call()
	}
	qp := QuantParams{InScale: 0.1, WScales: []float32{1, 1, 1}, RowSums: make([]int32, 3), Bias: []float32{1, 2}}
	x := New(2, 4, 5, 5)
	requireBiasPanic("Conv2dInt8Into", func() {
		Conv2dInt8Into(New(2, 3, 5, 5), x, make([]int8, 3*4*9), []int{3, 4, 3, 3}, qp, ConvSpec{PadH: 1, PadW: 1})
	})
	requireBiasPanic("LinearInt8Into", func() { LinearInt8Into(New(2, 3), New(2, 4), make([]int8, 3*4), qp) })
}
