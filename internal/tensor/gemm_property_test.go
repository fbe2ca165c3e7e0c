package tensor

import (
	"math/rand"
	"testing"
)

// fillRand populates s with values in [-1, 1), plus occasional exact
// zeros and negative zeros to exercise the zero-handling edge cases the
// old kernels special-cased.
func fillRand(rng *rand.Rand, s []float32) {
	for i := range s {
		switch rng.Intn(16) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = float32(math32Copysign(0, -1))
		default:
			s[i] = rng.Float32()*2 - 1
		}
	}
}

func math32Copysign(x, sign float32) float32 {
	if sign < 0 || (sign == 0 && 1/sign < 0) {
		if x < 0 {
			return x
		}
		return -x
	}
	if x < 0 {
		return -x
	}
	return x
}

// gemmNaive is the reference kernel the property tests compare the
// blocked path against (exact float32 equality): the obvious triple loop,
// one left-to-right accumulation chain per element. Element access:
// A[i,p] is a[i*lda+p], or a[p*lda+i] when transA; B[p,j] is b[p*ldb+j],
// or b[j*ldb+p] when transB.
func gemmNaive(dst []float32, ldc int, a []float32, lda int, transA bool, b []float32, ldb int, transB bool, m, k, n int, acc bool) {
	for i := 0; i < m; i++ {
		drow := dst[i*ldc : i*ldc+n]
		for j := 0; j < n; j++ {
			var s float32
			if acc {
				s = drow[j]
			}
			for p := 0; p < k; p++ {
				var av, bv float32
				if transA {
					av = a[p*lda+i]
				} else {
					av = a[i*lda+p]
				}
				if transB {
					bv = b[j*ldb+p]
				} else {
					bv = b[p*ldb+j]
				}
				s += av * bv
			}
			drow[j] = s
		}
	}
}

// gemmCase runs one shape through gemmParallel with the given flags and
// demands exact float32 equality against the naive reference.
func gemmCase(t *testing.T, rng *rand.Rand, m, k, n int, transA, transB, acc bool) {
	t.Helper()
	var a, b []float32
	var lda, ldb int
	if transA {
		lda = m
		a = make([]float32, max1(k*m))
	} else {
		lda = k
		a = make([]float32, max1(m*k))
	}
	if transB {
		ldb = k
		b = make([]float32, max1(n*k))
	} else {
		ldb = n
		b = make([]float32, max1(k*n))
	}
	fillRand(rng, a)
	fillRand(rng, b)
	init := make([]float32, max1(m*n))
	fillRand(rng, init)

	got := make([]float32, len(init))
	want := make([]float32, len(init))
	copy(got, init)
	copy(want, init)

	gemmParallel(f32Kernels, f32Op{dst: got, ldc: n, a: a, lda: lda, transA: transA, b: b, ldb: ldb, transB: transB, m: m, k: k, n: n, acc: acc})
	gemmNaive(want, n, a, lda, transA, b, ldb, transB, m, k, n, acc)

	for i := range want {
		if got[i] != want[i] && !(isNaN32(got[i]) && isNaN32(want[i])) {
			t.Fatalf("m=%d k=%d n=%d transA=%v transB=%v acc=%v: dst[%d] = %v, naive %v",
				m, k, n, transA, transB, acc, i, got[i], want[i])
		}
	}
}

func isNaN32(x float32) bool { return x != x }

// TestGEMMMatchesNaiveExact checks the blocked/packed/vectorized GEMM
// against the reference triple loop with *exact* float32 equality — the
// determinism contract of DESIGN.md §10 — over degenerate (m, n, or k of
// 1), tile-remainder, and multi-block shapes, under all transpose and
// accumulate combinations.
func TestGEMMMatchesNaiveExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1},
		{1, 7, 33},
		{5, 1, 17},
		{9, 300, 1},
		{3, 5, 7},
		{4, 16, 16},
		{7, 23, 19},    // all remainders
		{16, 27, 130},  // conv-like, n remainder
		{31, 300, 65},  // k crosses gemmKC, m/n remainders
		{100, 260, 40}, // m crosses gemmMC, k crosses gemmKC
		{12, 520, 24},  // two full k chunks plus remainder
		{64, 576, 256}, // the conv benchmark shape
		{97, 64, 515},  // n crosses gemmNC
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				for _, acc := range []bool{false, true} {
					gemmCase(t, rng, m, k, n, transA, transB, acc)
				}
			}
		}
	}
}

// TestGEMMMatchesNaiveRandomShapes fuzzes shapes beyond the curated list.
func TestGEMMMatchesNaiveRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 60; it++ {
		m := 1 + rng.Intn(70)
		k := 1 + rng.Intn(320)
		n := 1 + rng.Intn(90)
		gemmCase(t, rng, m, k, n, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0)
	}
}

// TestGEMMWorkerCountBitIdentical runs the same problems under Workers ∈
// {1, 4, 8} and demands bit-identical outputs: worker count must only
// choose which goroutine computes an element, never how.
func TestGEMMWorkerCountBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	defer SetWorkers(SetWorkers(1))
	// Both sides of every split threshold: n below 2·gemmNR with m < n (a
	// short column chunk) and m ≥ n (a row split), n off the gemmNR grid,
	// m ≥ n with n below one tile.
	shapes := [][3]int{{16, 27, 1024}, {33, 300, 65}, {64, 576, 256}, {1, 512, 10},
		{12, 400, 28}, {40, 300, 24}, {97, 200, 50}, {64, 300, 12}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		fillRand(rng, a)
		fillRand(rng, b)
		var ref []float32
		for _, w := range []int{1, 4, 8} {
			SetWorkers(w)
			dst := make([]float32, m*n)
			gemmParallel(f32Kernels, f32Op{dst: dst, ldc: n, a: a, lda: k, b: b, ldb: n, m: m, k: k, n: n})
			if ref == nil {
				ref = dst
				continue
			}
			for i := range ref {
				if dst[i] != ref[i] {
					t.Fatalf("m=%d k=%d n=%d: Workers=%d dst[%d]=%v differs from Workers=1 %v",
						m, k, n, w, i, dst[i], ref[i])
				}
			}
		}
	}
}
