package tensor

import "fmt"

// MatMul returns the matrix product a×b for a of shape [m, k] and b of
// shape [k, n], computed by the blocked GEMM backend (gemm.go) and
// parallelized over the output according to Workers().
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	out := New(m, n)
	gemmParallel(f32Kernels, f32Op{dst: out.data, ldc: n, a: a.data, lda: k, b: b.data, ldb: n, m: m, k: k, n: n})
	return out
}

// MatMulAcc computes dst += a×b for a [m,k], b [k,n], dst [m,n].
func MatMulAcc(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAcc shapes %v += %v × %v", dst.shape, a.shape, b.shape))
	}
	gemmParallel(f32Kernels, f32Op{dst: dst.data, ldc: n, a: a.data, lda: k, b: b.data, ldb: n, m: m, k: k, n: n, acc: true})
}

// MatMulTransB computes dst = a×bᵀ for a [m,k], b [n,k], dst [m,n],
// overwriting dst.
func MatMulTransB(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if b.shape[1] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransB shapes %v = %v × %vᵀ", dst.shape, a.shape, b.shape))
	}
	gemmParallel(f32Kernels, f32Op{dst: dst.data, ldc: n, a: a.data, lda: k, b: b.data, ldb: k, transB: true, m: m, k: k, n: n})
}

// MatMulTransAAcc computes dst += aᵀ×b for a [k,m], b [k,n], dst [m,n].
func MatMulTransAAcc(dst, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAAcc shapes %v += %vᵀ × %v", dst.shape, a.shape, b.shape))
	}
	gemmParallel(f32Kernels, f32Op{dst: dst.data, ldc: n, a: a.data, lda: m, transA: true, b: b.data, ldb: n, m: m, k: k, n: n, acc: true})
}
