package tensor

// Blocked GEMM backend. One driver serves all four matmul variants
// (plain, accumulating, Aᵀ×B, A×Bᵀ) by parameterizing the pack routines
// with leading dimensions and transpose flags.
//
// Determinism contract (DESIGN.md §10): for every output element dst[i,j]
// the k-loop is a single left-to-right float32 accumulation chain
//
//	(((init + a_0·b_0) + a_1·b_1) + ... + a_{k-1}·b_{k-1})
//
// with init = 0 (overwrite) or the prior dst value (accumulate). Cache
// blocking only changes *which element* is computed when, never the
// per-element chain: k-chunk boundaries sit at fixed multiples of gemmKC
// and partial sums are stored to / reloaded from dst between chunks
// (float32 load/store is exact). The micro-kernels — AVX2 assembly and
// scalar Go alike — keep one accumulator per element and use separate
// multiply and add (never FMA). Consequently the result is bit-identical
// regardless of worker count, row/column partitioning, tile shape, or
// whether the naive fallback handled the call — the property the
// campaign engine's (Seed, Trials) reproducibility rests on.

const (
	gemmMR = 4   // micro-kernel rows
	gemmNR = 16  // micro-kernel columns (two AVX2 vectors)
	gemmKC = 256 // k-chunk: packed panels stay L1/L2-resident
	gemmMC = 96  // rows of A packed per macro block
	gemmNC = 512 // columns of B packed per macro block
)

// gemmNaive is the reference kernel: the obvious triple loop, retained
// both as the small-problem fallback and as the oracle the property
// tests compare the blocked path against (exact float32 equality).
// Element access: A[i,p] is a[i*lda+p], or a[p*lda+i] when transA;
// B[p,j] is b[p*ldb+j], or b[j*ldb+p] when transB.
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

// gemmNaiveIKJ is gemmNaive with the p-loop hoisted outside the j-loop so
// B rows stream contiguously — much faster for skinny outputs (small m).
// For a fixed element (i, j) the terms still arrive in ascending p order,
// one float32 add at a time, so the accumulation chain — and therefore the
// result bits — match gemmNaive exactly.
func gemmNaiveIKJ(dst []float32, ldc int, a []float32, lda int, transA bool, b []float32, ldb int, m, k, n int, acc bool) {
	for i := 0; i < m; i++ {
		drow := dst[i*ldc : i*ldc+n]
		if !acc {
			for j := range drow {
				drow[j] = 0
			}
		}
		for p := 0; p < k; p++ {
			var av float32
			if transA {
				av = a[p*lda+i]
			} else {
				av = a[i*lda+p]
			}
			brow := b[p*ldb : p*ldb+n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// gemmSmall dispatches problems below the blocking thresholds: dot-product
// order when B is transposed (both operand rows stream contiguously),
// row-streaming ikj order otherwise.
func gemmSmall(dst []float32, ldc int, a []float32, lda int, transA bool, b []float32, ldb int, transB bool, m, k, n int, acc bool) {
	if transB {
		// Rows of both operands are contiguous: plain dot products,
		// branch-free inner loops, same ascending-p chains as gemmNaive.
		for i := 0; i < m; i++ {
			drow := dst[i*ldc : i*ldc+n]
			for j := 0; j < n; j++ {
				brow := b[j*ldb : j*ldb+k]
				var s float32
				if acc {
					s = drow[j]
				}
				if transA {
					for p, bv := range brow {
						s += a[p*lda+i] * bv
					}
				} else {
					arow := a[i*lda : i*lda+k]
					for p, av := range arow {
						s += av * brow[p]
					}
				}
				drow[j] = s
			}
		}
		return
	}
	gemmNaiveIKJ(dst, ldc, a, lda, transA, b, ldb, m, k, n, acc)
}

// gemmReserve sizes ar for one gemmSerial call of the given shape (pack
// panels only; callers add their own scratch on top).
func gemmReserve(ar *arena, m, k, n int) {
	ar.reserve(gemmPackBound(m, k, n))
}

// gemmPackBound returns the arena floats gemmSerial needs for a problem
// of the given shape.
func gemmPackBound(m, k, n int) int {
	mb, kb, nb := m, k, n
	if mb > gemmMC {
		mb = gemmMC
	}
	if kb > gemmKC {
		kb = gemmKC
	}
	if nb > gemmNC {
		nb = gemmNC
	}
	return mb*kb + kb*nb
}

// gemmSerial computes dst = A×B (acc=false) or dst += A×B (acc=true) on
// the calling goroutine using the blocked, packed kernel. dst rows are
// ldc apart; transpose flags and leading dimensions are as in gemmNaive.
// Pack panels come from ar (restored on return).
func gemmSerial(dst []float32, ldc int, a []float32, lda int, transA bool, b []float32, ldb int, transB bool, m, k, n int, acc bool, ar *arena) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !acc {
			for i := 0; i < m; i++ {
				row := dst[i*ldc : i*ldc+n]
				for j := range row {
					row[j] = 0
				}
			}
		}
		return
	}
	// Tiny or skinny problems: packing costs more than it saves, and
	// outputs narrower than one vector tile would run entirely on the
	// scalar edge kernel anyway.
	if n < gemmNR || m*n < gemmMR*gemmNR || m*k*n < 8192 {
		gemmSmall(dst, ldc, a, lda, transA, b, ldb, transB, m, k, n, acc)
		return
	}

	mk := ar.mark()
	mbMax, kbMax, nbMax := m, k, n
	if mbMax > gemmMC {
		mbMax = gemmMC
	}
	if kbMax > gemmKC {
		kbMax = gemmKC
	}
	if nbMax > gemmNC {
		nbMax = gemmNC
	}
	apack := ar.take(mbMax * kbMax)
	bpack := ar.take(kbMax * nbMax)

	for jc := 0; jc < n; jc += gemmNC {
		nb := n - jc
		if nb > gemmNC {
			nb = gemmNC
		}
		for pc := 0; pc < k; pc += gemmKC {
			kb := k - pc
			if kb > gemmKC {
				kb = gemmKC
			}
			first := pc == 0 && !acc
			packB(bpack, b, ldb, transB, pc, jc, kb, nb)
			for ic := 0; ic < m; ic += gemmMC {
				mb := m - ic
				if mb > gemmMC {
					mb = gemmMC
				}
				packA(apack, a, lda, transA, ic, pc, mb, kb)
				gemmMacro(dst, ldc, ic, jc, apack, bpack, mb, nb, kb, first)
			}
		}
	}
	ar.restore(mk)
}

// packA copies the mb×kb block of A at (ic, pc) into mr-row panels laid
// out p-major: panel q (rows ic+q·mr …) occupies apack[q·mr·kb …] with
// element (r, p) at offset p·rows+r, rows being the panel height (mr, or
// the remainder for the last panel — edge panels are packed dense, not
// zero-padded, so no phantom +0.0 terms enter any accumulation chain).
func packA(apack []float32, a []float32, lda int, transA bool, ic, pc, mb, kb int) {
	idx := 0
	for ir := 0; ir < mb; ir += gemmMR {
		rows := mb - ir
		if rows > gemmMR {
			rows = gemmMR
		}
		if transA {
			// A stored [k, m]: row p of storage holds column p of the
			// logical matrix — both source and destination walk
			// contiguously (this replaces the strided column walk the
			// old matMulTransAInto kernel paid per inner-loop step).
			for p := 0; p < kb; p++ {
				src := a[(pc+p)*lda+ic+ir : (pc+p)*lda+ic+ir+rows]
				copy(apack[idx:idx+rows], src)
				idx += rows
			}
		} else {
			for r := 0; r < rows; r++ {
				src := a[(ic+ir+r)*lda+pc : (ic+ir+r)*lda+pc+kb]
				for p, v := range src {
					apack[idx+p*rows+r] = v
				}
			}
			idx += rows * kb
		}
	}
}

// packB copies the kb×nb block of B at (pc, jc) into nr-column panels
// laid out p-major: element (p, c) of a panel of width cols sits at
// offset p·cols+c.
func packB(bpack []float32, b []float32, ldb int, transB bool, pc, jc, kb, nb int) {
	idx := 0
	for jr := 0; jr < nb; jr += gemmNR {
		cols := nb - jr
		if cols > gemmNR {
			cols = gemmNR
		}
		if transB {
			// B stored [n, k]: logical column j is storage row j.
			for c := 0; c < cols; c++ {
				src := b[(jc+jr+c)*ldb+pc : (jc+jr+c)*ldb+pc+kb]
				for p, v := range src {
					bpack[idx+p*cols+c] = v
				}
			}
			idx += cols * kb
		} else if cols == gemmNR {
			packBRows(bpack[idx:], b[pc*ldb+jc+jr:], ldb, kb)
			idx += kb * gemmNR
		} else {
			for p := 0; p < kb; p++ {
				src := b[(pc+p)*ldb+jc+jr : (pc+p)*ldb+jc+jr+cols]
				copy(bpack[idx:idx+cols], src)
				idx += cols
			}
		}
	}
}

// packBRows copies kb full-width panel rows, row p from src[p·ldb …] to
// dst[p·gemmNR …]. Each row is four 16-byte array assignments, which Go
// lowers to MOVUPS load/store pairs; a single [16]float32 assignment,
// like copy(), calls memmove once per row.
func packBRows(dst, src []float32, ldb, kb int) {
	for p := 0; p < kb; p++ {
		s := (*[gemmNR]float32)(src[p*ldb:])
		d := (*[gemmNR]float32)(dst[p*gemmNR:])
		*(*[4]float32)(d[0:4]) = *(*[4]float32)(s[0:4])
		*(*[4]float32)(d[4:8]) = *(*[4]float32)(s[4:8])
		*(*[4]float32)(d[8:12]) = *(*[4]float32)(s[8:12])
		*(*[4]float32)(d[12:16]) = *(*[4]float32)(s[12:16])
	}
}

// gemmMacro drives the micro-kernel over one packed (mb×kb)·(kb×nb)
// block, writing dst starting at (ic, jc).
func gemmMacro(dst []float32, ldc, ic, jc int, apack, bpack []float32, mb, nb, kb int, first bool) {
	for jr := 0; jr < nb; jr += gemmNR {
		cols := nb - jr
		if cols > gemmNR {
			cols = gemmNR
		}
		bp := bpack[jr*kb : jr*kb+cols*kb]
		for ir := 0; ir < mb; ir += gemmMR {
			rows := mb - ir
			if rows > gemmMR {
				rows = gemmMR
			}
			ap := apack[ir*kb : ir*kb+rows*kb]
			c := dst[(ic+ir)*ldc+jc+jr:]
			if cols == gemmNR {
				if rows == gemmMR {
					kern4x16(c, ldc, ap, bp, kb, first)
					continue
				}
				// Row remainder at full width: one 1×16 pass per row
				// keeps the wide kernel (and its exact per-element
				// chains — each row is independent).
				for r := 0; r < rows; r++ {
					kern1x16(c[r*ldc:], ap[r:], rows, bp, kb, first)
				}
				continue
			}
			kernEdge(c, ldc, ap, bp, rows, cols, kb, first)
		}
	}
}

// kernEdge handles tiles narrower than the vector kernels: one
// accumulator per element, sequential over the packed k chunk.
func kernEdge(c []float32, ldc int, ap, bp []float32, rows, cols, kb int, first bool) {
	for r := 0; r < rows; r++ {
		crow := c[r*ldc : r*ldc+cols]
		for j := 0; j < cols; j++ {
			var s float32
			if !first {
				s = crow[j]
			}
			for p := 0; p < kb; p++ {
				s += ap[p*rows+r] * bp[p*cols+j]
			}
			crow[j] = s
		}
	}
}

// kern4x16scalar is the portable micro-kernel: the 4×16 tile is computed
// as eight 2×4 register sub-tiles (small enough that the compiler keeps
// every accumulator in a register), each a straight p-loop — the same
// per-element chains as the assembly kernel.
func kern4x16scalar(c []float32, ldc int, ap, bp []float32, kb int, first bool) {
	for r0 := 0; r0 < gemmMR; r0 += 2 {
		for j0 := 0; j0 < gemmNR; j0 += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float32
			if !first {
				d0 := c[r0*ldc+j0 : r0*ldc+j0+4]
				d1 := c[(r0+1)*ldc+j0 : (r0+1)*ldc+j0+4]
				c00, c01, c02, c03 = d0[0], d0[1], d0[2], d0[3]
				c10, c11, c12, c13 = d1[0], d1[1], d1[2], d1[3]
			}
			// Advance the panel bases and index with the sub-tile
			// offsets: the final advance lands exactly on the empty
			// tail, whereas advancing a pre-offset slice would
			// over-slice it on the last iteration.
			api := ap
			bpi := bp
			for p := 0; p < kb; p++ {
				a0, a1 := api[r0], api[r0+1]
				b0, b1, b2, b3 := bpi[j0], bpi[j0+1], bpi[j0+2], bpi[j0+3]
				c00 += a0 * b0
				c01 += a0 * b1
				c02 += a0 * b2
				c03 += a0 * b3
				c10 += a1 * b0
				c11 += a1 * b1
				c12 += a1 * b2
				c13 += a1 * b3
				api = api[gemmMR:]
				bpi = bpi[gemmNR:]
			}
			d0 := c[r0*ldc+j0 : r0*ldc+j0+4]
			d1 := c[(r0+1)*ldc+j0 : (r0+1)*ldc+j0+4]
			d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
			d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
		}
	}
}

// kern1x16scalar computes one row against a full-width B panel; astride
// is the packed row stride of ap (the panel height).
func kern1x16scalar(c []float32, ap []float32, astride int, bp []float32, kb int, first bool) {
	for j0 := 0; j0 < gemmNR; j0 += 4 {
		var c0, c1, c2, c3 float32
		if !first {
			d := c[j0 : j0+4]
			c0, c1, c2, c3 = d[0], d[1], d[2], d[3]
		}
		bpi := bp
		ai := 0
		for p := 0; p < kb; p++ {
			a0 := ap[ai]
			c0 += a0 * bpi[j0]
			c1 += a0 * bpi[j0+1]
			c2 += a0 * bpi[j0+2]
			c3 += a0 * bpi[j0+3]
			ai += astride
			bpi = bpi[gemmNR:]
		}
		d := c[j0 : j0+4]
		d[0], d[1], d[2], d[3] = c0, c1, c2, c3
	}
}
