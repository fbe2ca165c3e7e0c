package tensor

import (
	"math/rand"
	"testing"
)

// TestMatMulWrapperFamily pins the accumulate/transpose wrappers to the
// plain MatMul result. The GEMM determinism contract fixes every
// element's accumulation chain in ascending-k order regardless of
// operand transposition, so the comparisons are exact, not approximate.
func TestMatMulWrapperFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m, k, n := 5, 7, 9
	a := RandUniform(rng, -1, 1, m, k)
	b := RandUniform(rng, -1, 1, k, n)
	bt := New(n, k)
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			bt.Data()[j*k+i] = b.Data()[i*n+j]
		}
	}
	at := New(k, m)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			at.Data()[p*m+i] = a.Data()[i*k+p]
		}
	}
	want := MatMul(a, b)

	// The first accumulate onto zeros matches the overwrite chain
	// exactly; the second interleaves the existing value into the
	// chain, so doubling is only approximate.
	acc := New(m, n)
	MatMulAcc(acc, a, b)
	if !acc.Equal(want) {
		t.Fatal("MatMulAcc onto zeros != MatMul")
	}
	MatMulAcc(acc, a, b)
	for i, w := range want.Data() {
		if d := acc.Data()[i] - 2*w; d > 1e-5 || d < -1e-5 {
			t.Fatalf("MatMulAcc element %d = %g, want ≈%g", i, acc.Data()[i], 2*w)
		}
	}

	// The transposed forms may take differently-ordered accumulation
	// chains (the small-problem dot path), so compare approximately.
	near := func(label string, got *Tensor) {
		t.Helper()
		for i, w := range want.Data() {
			if d := got.Data()[i] - w; d > 1e-5 || d < -1e-5 {
				t.Fatalf("%s element %d = %g, want ≈%g", label, i, got.Data()[i], w)
			}
		}
	}
	tb := New(m, n)
	MatMulTransB(tb, a, bt)
	near("MatMulTransB", tb)

	ta := New(m, n)
	MatMulTransAAcc(ta, at, b)
	near("MatMulTransAAcc", ta)

	into := make([]float32, m*n)
	gemmParallel(f32Kernels, f32Op{dst: into, ldc: n, a: a.Data(), lda: k, b: b.Data(), ldb: n, m: m, k: k, n: n})
	for i, w := range want.Data() {
		if into[i] != w {
			t.Fatalf("gemmParallel element %d = %g, want %g", i, into[i], w)
		}
	}
	gemmParallel(f32Kernels, f32Op{dst: into, ldc: n, a: a.Data(), lda: k, b: b.Data(), ldb: n, m: m, k: k, n: n, acc: true})
	for i, w := range want.Data() {
		if d := into[i] - 2*w; d > 1e-5 || d < -1e-5 {
			t.Fatalf("gemmParallel acc element %d = %g, want ≈%g", i, into[i], 2*w)
		}
	}
}

// TestConv2dIntoReusesDst: the Into variant writes a caller buffer and
// matches the allocating form bit-for-bit, including on a second pass
// over a dirty dst.
func TestConv2dIntoReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := RandUniform(rng, -1, 1, 2, 3, 8, 8)
	w := RandUniform(rng, -1, 1, 4, 3, 3, 3)
	bias := RandUniform(rng, -1, 1, 4)
	spec := ConvSpec{PadH: 1, PadW: 1}
	want := Conv2d(x, w, bias, spec)
	dst := New(want.Shape()...)
	for pass := 0; pass < 2; pass++ {
		Conv2dInto(dst, x, w, bias, spec)
		if !dst.Equal(want) {
			t.Fatalf("pass %d: Conv2dInto differs from Conv2d", pass)
		}
	}
}

// AvgPool2dInto's reuse of a dirty dst is walled, with the allocating
// form, by TestAvgPool2dIntoMatchesGeneric in pool_test.go.

// TestElementwiseIntoLengthMismatchPanics: ScaleShiftInto and ReLUInto
// take equal-length slices, as QuantizeI8Into does.
func TestElementwiseIntoLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"ScaleShiftInto": func() { ScaleShiftInto(make([]float32, 2), make([]float32, 3), 1, 0) },
		"ReLUInto":       func() { ReLUInto(make([]float32, 3), make([]float32, 2), 6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length mismatch must panic", name)
				}
			}()
			f()
		}()
	}
}

// The kernel-gate-flipping tests (forced-scalar vs AVX2 parity,
// KernelBackend names) live in api_surface_amd64_test.go: the gemmAVX2
// gate only exists on amd64 builds.

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	fanIn, fanOut := 30, 20
	w := XavierInit(rng, fanIn, fanOut, 10, 10)
	limit := float32(0.35) // sqrt(6/50) ≈ 0.346
	for i, v := range w.Data() {
		if v < -limit || v > limit {
			t.Fatalf("element %d = %g outside ±%g", i, v, limit)
		}
	}
	// Degenerate fan sums clamp instead of dividing by zero.
	if z := XavierInit(rng, 0, 0, 4); z.Len() != 4 {
		t.Fatal("degenerate XavierInit shape")
	}
}

func TestParallelForCoversEveryIndex(t *testing.T) {
	old := SetWorkers(4)
	defer SetWorkers(old)
	n := 101
	hits := make([]int32, n)
	parallelForChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

// TestConv2dInt8StridedMatchesNaive covers the generic (non-unit-stride)
// int8 im2col path against a direct convolution over the same codes:
// stride 2 with padding and a nonzero zero-point, folded with the exact
// same float32 expression the driver uses, so equality is bitwise.
func TestConv2dInt8StridedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	n, c, h, w := 2, 3, 9, 11
	cout, kh, kw := 5, 3, 3
	spec := ConvSpec{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}.Canon()
	x := RandUniform(rng, -1, 1, n, c, h, w)
	wq := randI8(rng, cout*c*kh*kw)
	qp := QuantParams{
		InScale: 1.0 / 32, InZP: 7,
		WScales: make([]float32, cout),
		RowSums: make([]int32, cout),
		Bias:    make([]float32, cout),
	}
	for oc := 0; oc < cout; oc++ {
		qp.WScales[oc] = float32(oc+2) / 400
		qp.Bias[oc] = float32(oc) - 2
		var s int32
		for _, v := range wq[oc*c*kh*kw : (oc+1)*c*kh*kw] {
			s += int32(v)
		}
		qp.RowSums[oc] = s
	}
	outShape := ConvOutShape(x.Shape(), []int{cout, c, kh, kw}, spec)
	oh, ow := outShape[2], outShape[3]

	xq := make([]int8, x.Len())
	QuantizeI8Into(xq, x.Data(), qp.InScale, qp.InZP)
	want := New(outShape...)
	for s := 0; s < n; s++ {
		for oc := 0; oc < cout; oc++ {
			scale := qp.InScale * qp.WScales[oc]
			corr := int32(qp.InZP) * qp.RowSums[oc]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc int32
					for ci := 0; ci < c; ci++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								iy := oy*spec.StrideH - spec.PadH + ky
								ix := ox*spec.StrideW - spec.PadW + kx
								code := qp.InZP
								if iy >= 0 && iy < h && ix >= 0 && ix < w {
									code = xq[((s*c+ci)*h+iy)*w+ix]
								}
								acc += int32(wq[((oc*c+ci)*kh+ky)*kw+kx]) * int32(code)
							}
						}
					}
					want.Data()[((s*cout+oc)*oh+oy)*ow+ox] = float32(acc-corr)*scale + qp.Bias[oc]
				}
			}
		}
	}

	got := New(outShape...)
	Conv2dInt8Into(got, x, wq, []int{cout, c, kh, kw}, qp, spec)
	if !got.Equal(want) {
		t.Fatal("strided int8 conv differs from naive reference")
	}
}

// TestGemmI8SerialDegenerate: zero-sized operands are exact no-ops or
// zero fills, never panics or stale data.
func TestGemmI8SerialDegenerate(t *testing.T) {
	var sc scratch
	defer sc.release()
	gemmSerial(i8Kernels, &i8Op{k: 3}, &sc)
	dst := []int32{1, 2, 3, 4}
	gemmSerial(i8Kernels, &i8Op{dst: dst, ldc: 2, m: 2, n: 2}, &sc)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("k=0 must zero dst, element %d = %d", i, v)
		}
	}
}

func TestQuantizeI8IntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	QuantizeI8Into(make([]int8, 2), make([]float32, 3), 1, 0)
}

// TestArenaGrowthAndMarkGuards, for every element type kernels take
// scratch in: takes that outgrow the buffer leave previously taken slices
// valid on the old array, a restore whose mark predates a reallocation is
// a guarded no-op (rolling the offset back onto the fresh buffer would
// alias live slices), and a same-generation restore rolls back. slots
// holds one scratch to all three at once: each type has a slot of its own.
func TestArenaGrowthAndMarkGuards(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"float32", arenaGuards[float32]},
		{"int8", arenaGuards[int8]},
		{"int32", arenaGuards[int32]},
		{"slots", arenaSlots},
	} {
		t.Run(tc.name, tc.run)
	}
}

func arenaSlots(t *testing.T) {
	var sc scratch
	f, b, i := arenaOf[float32](&sc), arenaOf[int8](&sc), arenaOf[int32](&sc)
	f.reserve(3)
	b.reserve(5)
	i.reserve(7)
	if len(f.take(3)) != 3 || len(b.take(5)) != 5 || len(i.take(7)) != 7 {
		t.Fatal("an arena served the wrong length")
	}
	if arenaOf[float32](&sc) != f || arenaOf[int8](&sc) != b || arenaOf[int32](&sc) != i {
		t.Fatal("a scratch must keep one arena per element type")
	}
	sc.release()
	if sc != (scratch{}) {
		t.Fatal("release must return every arena")
	}
}

func arenaGuards[T elem](t *testing.T) {
	var sc scratch
	if arenaOf[T](&sc) != arenaOf[T](&sc) {
		t.Fatal("a scratch must hand out one arena per element type")
	}
	sc.release()

	// Fresh arenas, not pooled ones, so the sizes below are the buffer's.
	a := new(arena[T])
	a.reserve(4)
	first := a.take(4)
	first[0] = 42
	m := a.mark()
	grown := a.take(1 << 12) // forces reallocation
	grown[0] = 1
	if first[0] != 42 {
		t.Fatal("growth invalidated a live slice")
	}
	off := a.off
	a.restore(m)
	if a.off != off {
		t.Fatal("restore across a reallocation must be a no-op")
	}

	// Same-generation restores do roll back (a fresh arena with headroom,
	// so the takes can't trigger another reallocation).
	// Reservations add up: two users of one arena take their shares
	// without a reallocation between them.
	c := new(arena[T])
	c.reserve(3)
	c.reserve(5)
	c.take(3)
	gen := c.gen
	c.take(5)
	if c.gen != gen || len(c.buf) != 8 {
		t.Fatal("takes within the summed reservation must not reallocate")
	}

	b := new(arena[T])
	b.reserve(64)
	b.take(8)
	m = b.mark()
	b.take(8)
	b.restore(m)
	if b.off != m.off {
		t.Fatal("same-generation restore must roll back")
	}
}
