package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulHandComputed(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	got := MatMul(a, b)
	want := FromSlice([]float32{19, 22, 43, 50}, 2, 2)
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandUniform(rng, -1, 1, 3, 3)
	id := New(3, 3)
	for i := 0; i < 3; i++ {
		id.Set(1, i, i)
	}
	if !MatMul(a, id).AllClose(a, 1e-6) {
		t.Fatal("A×I != A")
	}
	if !MatMul(id, a).AllClose(a, 1e-6) {
		t.Fatal("I×A != A")
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}, {1, 64, 1}} {
		a := RandUniform(rng, -2, 2, dims[0], dims[1])
		b := RandUniform(rng, -2, 2, dims[1], dims[2])
		if !MatMul(a, b).AllClose(naiveMatMul(a, b), 1e-3) {
			t.Fatalf("MatMul mismatch for dims %v", dims)
		}
	}
}

func TestMatMulDimensionPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"inner-mismatch", func() { MatMul(New(2, 3), New(4, 2)) }},
		{"rank1", func() { MatMul(New(3), New(3, 2)) }},
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

func TestMatMulTransHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// dst = Aᵀ×B with A [k,m], B [k,n].
	k, m, n := 4, 3, 5
	a := RandUniform(rng, -1, 1, k, m)
	b := RandUniform(rng, -1, 1, k, n)
	dst := New(m, n)
	gemmParallel(f32Kernels, f32Op{dst: dst.Data(), ldc: n, a: a.Data(), lda: m, transA: true, b: b.Data(), ldb: n, m: m, k: k, n: n, acc: true})
	at := New(m, k)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			at.Set(a.At(j, i), i, j)
		}
	}
	if !dst.AllClose(naiveMatMul(at, b), 1e-4) {
		t.Fatal("transposed-A GEMM mismatch")
	}

	// dst = A×Bᵀ with A [m,k], B [n,k].
	a2 := RandUniform(rng, -1, 1, m, k)
	b2 := RandUniform(rng, -1, 1, n, k)
	dst2 := New(m, n)
	gemmParallel(f32Kernels, f32Op{dst: dst2.Data(), ldc: n, a: a2.Data(), lda: k, b: b2.Data(), ldb: k, transB: true, m: m, k: k, n: n, acc: true})
	bt := New(k, n)
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			bt.Set(b2.At(j, i), i, j)
		}
	}
	if !dst2.AllClose(naiveMatMul(a2, bt), 1e-4) {
		t.Fatal("transposed-B GEMM mismatch")
	}
}

func TestMatMulSerialParallelAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandUniform(rng, -1, 1, 33, 17)
	b := RandUniform(rng, -1, 1, 17, 29)
	prev := SetWorkers(1)
	serial := MatMul(a, b)
	SetWorkers(6)
	par := MatMul(a, b)
	SetWorkers(prev)
	if !serial.AllClose(par, 1e-6) {
		t.Fatal("backends disagree")
	}
}

func TestSetWorkersClamp(t *testing.T) {
	prev := SetWorkers(-5)
	if Workers() != 1 {
		t.Fatalf("Workers = %d, want 1", Workers())
	}
	SetWorkers(prev)
}

// Property: (A×B)ᵀ == Bᵀ×Aᵀ within tolerance.
func TestMatMulTransposeIdentity_Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := RandUniform(rng, -3, 3, m, k)
		b := RandUniform(rng, -3, 3, k, n)
		ab := MatMul(a, b)
		at := New(k, m)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				at.Set(a.At(j, i), i, j)
			}
		}
		bt := New(n, k)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				bt.Set(b.At(j, i), i, j)
			}
		}
		btat := MatMul(bt, at)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				d := ab.At(i, j) - btat.At(j, i)
				if d < 0 {
					d = -d
				}
				if d > 1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
