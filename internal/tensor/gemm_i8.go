package tensor

// Blocked int8 GEMM backend for the quantized inference path: int8
// operands, int32 accumulation. The structure deliberately mirrors the
// float32 backend in gemm.go — the same jc/pc/ic cache-blocking loop
// nest, the same panel sizes (gemmMR×gemmNR micro-tiles, gemmKC k-chunks)
// and the same arena-backed pack scratch — but with a k-pair-interleaved
// panel layout sized for the AVX2 VPMADDWD multiply-accumulate:
//
//   - A panels hold sign-extended int16 pairs, 2·gemmMR per k-pair:
//     element (r, p) of a panel sits at (p/2)·8 + 2r + p%2, so each
//     row's adjacent-k pair is one 32-bit broadcastable unit
//     (VPBROADCASTD needs the pair pre-widened as a 32-bit lane).
//   - B panels hold raw int8 codes in plain row-major gemmNR-column
//     slabs: element (p, c) at p·16 + c, kb rows zero-padded up to the
//     next even count. The pack is therefore a pure row copy — no
//     widening, no interleave — and the kernel does the work instead:
//     VPMOVSXBW widens two adjacent k-rows to int16 and one
//     VPUNPCKLWD/VPUNPCKHWD pair forms the (k, k+1) pairs VPMADDWD
//     needs, amortized over the gemmMR A-rows of the tile. Unpack works
//     within 128-bit lanes, so the kernel's accumulators hold columns in
//     the permuted order {0–3, 8–11}/{4–7, 12–15}; VPERM2I128 restores
//     natural order at tile load/store, once per tile instead of per k.
//   - Odd k is zero-padded inside the last pair — in integer arithmetic
//     a 0·x term is exactly neutral, so padding never changes results
//     (unlike float32, where the pack stays dense to keep chains exact).
//
// Determinism is free here: int32 integer accumulation is exact and
// associative, so ANY blocking, worker split, or kernel choice produces
// bit-identical accumulators. The scalar fallback kernels compute the
// same sums in plain loops; the parity tests (gemm_i8_test.go and the
// amd64-tagged kernel test) pin the asm and scalar paths to each other
// and to the naive reference on randomized shapes.

// gemmI8Naive is the reference: the obvious triple loop over int8
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

// gemmI8Small dispatches problems below the blocking thresholds:
// dot-product order when B is transposed, row-streaming ikj otherwise.
func gemmI8Small(dst []int32, ldc int, a []int8, lda int, b []int8, ldb int, transB bool, m, k, n int) {
	if transB {
		for i := 0; i < m; i++ {
			drow := dst[i*ldc : i*ldc+n]
			arow := a[i*lda : i*lda+k]
			for j := 0; j < n; j++ {
				brow := b[j*ldb : j*ldb+k]
				var s int32
				for p, av := range arow {
					s += int32(av) * int32(brow[p])
				}
				drow[j] = s
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		drow := dst[i*ldc : i*ldc+n]
		for j := range drow {
			drow[j] = 0
		}
		for p := 0; p < k; p++ {
			av := int32(a[i*lda+p])
			brow := b[p*ldb : p*ldb+n]
			for j, bv := range brow {
				drow[j] += av * int32(bv)
			}
		}
	}
}

// gemmI8PackBoundA returns the int16 elements (A panels) and
// gemmI8PackBoundB the int8 elements (B panels) gemmI8Serial needs for
// one call of the given shape, padded to full tiles. gemmI8Reserve
// sizes both sections of an arena in one call.
func gemmI8PackBoundA(m, k int) int {
	mb, kb := m, k
	if mb > gemmMC {
		mb = gemmMC
	}
	if kb > gemmKC {
		kb = gemmKC
	}
	kp := (kb + 1) / 2
	return ((mb + gemmMR - 1) / gemmMR) * kp * 2 * gemmMR
}

func gemmI8PackBoundB(k, n int) int {
	kb, nb := k, n
	if kb > gemmKC {
		kb = gemmKC
	}
	if nb > gemmNC {
		nb = gemmNC
	}
	kp := (kb + 1) / 2
	return ((nb + gemmNR - 1) / gemmNR) * kp * 2 * gemmNR
}

func gemmI8Reserve(ia *iarena, m, k, n int) {
	ia.reserve16(gemmI8PackBoundA(m, k))
	ia.reserve8(gemmI8PackBoundB(k, n))
}

// gemmI8Serial computes dst = A×B (int32 accumulation, always overwrite)
// on the calling goroutine with the blocked, packed kernel. Pack panels
// come from ia — A from the int16 section, B from the int8 section —
// and both are restored on return. b may itself live in ia's int8
// section (the conv path's column buffer): takes hand out disjoint
// ranges, so the B panels never alias it.
func gemmI8Serial(dst []int32, ldc int, a []int8, lda int, b []int8, ldb int, transB bool, m, k, n int, ia *iarena) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		for i := 0; i < m; i++ {
			row := dst[i*ldc : i*ldc+n]
			for j := range row {
				row[j] = 0
			}
		}
		return
	}
	if n < gemmNR || m*n < gemmMR*gemmNR || m*k*n < 8192 {
		gemmI8Small(dst, ldc, a, lda, b, ldb, transB, m, k, n)
		return
	}

	mk16 := ia.mark16()
	mk8 := ia.mark8()
	apack := ia.take16(gemmI8PackBoundA(m, k))
	bpack := ia.take8(gemmI8PackBoundB(k, n))

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
			first := pc == 0
			packBI8(bpack, b, ldb, transB, pc, jc, kb, nb)
			for ic := 0; ic < m; ic += gemmMC {
				mb := m - ic
				if mb > gemmMC {
					mb = gemmMC
				}
				packAI8(apack, a, lda, ic, pc, mb, kb)
				gemmI8Macro(dst, ldc, ic, jc, apack, bpack, mb, nb, kb, first)
			}
		}
	}
	ia.restore8(mk8)
	ia.restore16(mk16)
}

// gemmI8Parallel is gemmI8Serial with the output partitioned by columns
// across Workers(). Integer accumulation is exact, so the split cannot
// change results; it only decides which goroutine computes which
// columns. Each worker packs into its own pooled arena.
func gemmI8Parallel(dst []int32, ldc int, a []int8, lda int, b []int8, ldb int, transB bool, m, k, n int) {
	w := Workers()
	if w > 1 && n >= 2*gemmNR && m*k*n >= 1<<15 {
		chunk := ((n+w-1)/w + gemmNR - 1) / gemmNR * gemmNR
		runParallel(n, chunk, w, func(lo, hi int) {
			bsub := b[lo:]
			if transB {
				bsub = b[lo*ldb:]
			}
			ia := getIArena()
			gemmI8Reserve(ia, m, k, hi-lo)
			gemmI8Serial(dst[lo:], ldc, a, lda, bsub, ldb, transB, m, k, hi-lo, ia)
			ia.release()
		})
		return
	}
	ia := getIArena()
	gemmI8Reserve(ia, m, k, n)
	gemmI8Serial(dst, ldc, a, lda, b, ldb, transB, m, k, n, ia)
	ia.release()
}

// packAI8 copies the mb×kb block of A at (ic, pc) into mr-row panels with
// the pair-interleaved layout described atop this file. Panels have a
// fixed 2·gemmMR stride per k-pair; missing rows (edge panels) and the
// odd-k tail are zero-padded, which integer accumulation treats as
// exactly neutral.
func packAI8(apack []int16, a []int8, lda int, ic, pc, mb, kb int) {
	kp := (kb + 1) / 2
	stride := 2 * gemmMR
	idx := 0
	for ir := 0; ir < mb; ir += gemmMR {
		rows := mb - ir
		if rows > gemmMR {
			rows = gemmMR
		}
		panel := apack[idx : idx+kp*stride]
		if rows < gemmMR || kb&1 == 1 {
			for i := range panel {
				panel[i] = 0
			}
		}
		for r := 0; r < rows; r++ {
			src := a[(ic+ir+r)*lda+pc : (ic+ir+r)*lda+pc+kb]
			o := 2 * r
			for p, v := range src {
				panel[(p>>1)*stride+o+(p&1)] = int16(v)
			}
		}
		idx += kp * stride
	}
}

// packBI8 copies the kb×nb block of B at (pc, jc) into nr-column panels
// in plain row-major order: element (p, c) at p·gemmNR + c. The
// non-transposed pack — the one every conv GEMM takes — degenerates to
// kb row copies per panel, which is the whole point of the layout: the
// kernel pays for the pair interleave once per tile, the pack (run once
// per k-chunk over the full block) pays nothing. Edge columns and the
// odd-k tail row are zero-padded.
func packBI8(bpack []int8, b []int8, ldb int, transB bool, pc, jc, kb, nb int) {
	kp := (kb + 1) / 2
	stride := 2 * gemmNR
	idx := 0
	for jr := 0; jr < nb; jr += gemmNR {
		cols := nb - jr
		if cols > gemmNR {
			cols = gemmNR
		}
		panel := bpack[idx : idx+kp*stride]
		if cols < gemmNR || kb&1 == 1 {
			for i := range panel {
				panel[i] = 0
			}
		}
		if transB {
			// B stored [n, k]: logical column j is storage row jc+jr+c.
			for c := 0; c < cols; c++ {
				src := b[(jc+jr+c)*ldb+pc : (jc+jr+c)*ldb+pc+kb]
				for p, v := range src {
					panel[p*gemmNR+c] = v
				}
			}
		} else if cols == gemmNR {
			// A full-width row as one fixed-size array assignment: Go
			// lowers it to a 16-byte load/store pair, where copy() would
			// call memmove once per row.
			for p := 0; p < kb; p++ {
				*(*[gemmNR]int8)(panel[p*gemmNR:]) = *(*[gemmNR]int8)(b[(pc+p)*ldb+jc+jr:])
			}
		} else {
			for p := 0; p < kb; p++ {
				copy(panel[p*gemmNR:p*gemmNR+cols], b[(pc+p)*ldb+jc+jr:(pc+p)*ldb+jc+jr+cols])
			}
		}
		idx += kp * stride
	}
}

// gemmI8Macro drives the micro-kernel over one packed block, writing dst
// starting at (ic, jc). first selects overwrite vs accumulate (k-chunks
// after the first add onto the stored partial sums — exact for int32).
func gemmI8Macro(dst []int32, ldc, ic, jc int, apack []int16, bpack []int8, mb, nb, kb int, first bool) {
	kp := (kb + 1) / 2
	for jr := 0; jr < nb; jr += gemmNR {
		cols := nb - jr
		if cols > gemmNR {
			cols = gemmNR
		}
		bp := bpack[(jr/gemmNR)*kp*2*gemmNR:][:kp*2*gemmNR]
		for ir := 0; ir < mb; ir += gemmMR {
			rows := mb - ir
			if rows > gemmMR {
				rows = gemmMR
			}
			ap := apack[(ir/gemmMR)*kp*2*gemmMR:][:kp*2*gemmMR]
			c := dst[(ic+ir)*ldc+jc+jr:]
			if rows == gemmMR && cols == gemmNR {
				kernI8(c, ldc, ap, bp, kp, first)
			} else {
				kernI8Edge(c, ldc, ap, bp, rows, cols, kp, first)
			}
		}
	}
}

// kernI8Edge handles tiles narrower than the full 4×16 kernel, walking
// the same padded panels (A pair-interleaved, B row-major).
func kernI8Edge(c []int32, ldc int, ap []int16, bp []int8, rows, cols, kp int, first bool) {
	for r := 0; r < rows; r++ {
		crow := c[r*ldc : r*ldc+cols]
		for j := 0; j < cols; j++ {
			var s int32
			if !first {
				s = crow[j]
			}
			for p2 := 0; p2 < kp; p2++ {
				s += int32(ap[p2*2*gemmMR+2*r])*int32(bp[(2*p2)*gemmNR+j]) +
					int32(ap[p2*2*gemmMR+2*r+1])*int32(bp[(2*p2+1)*gemmNR+j])
			}
			crow[j] = s
		}
	}
}

// kernI8x16scalar is the portable 4×16 micro-kernel: per k-pair it forms
// the same two-term products VPMADDWD computes and accumulates them in
// int32 — bit-identical to the assembly kernel by integer exactness.
func kernI8x16scalar(c []int32, ldc int, ap []int16, bp []int8, kp int, first bool) {
	var acc [gemmMR * gemmNR]int32
	if !first {
		for r := 0; r < gemmMR; r++ {
			copy(acc[r*gemmNR:(r+1)*gemmNR], c[r*ldc:r*ldc+gemmNR])
		}
	}
	for p2 := 0; p2 < kp; p2++ {
		av := ap[p2*2*gemmMR : p2*2*gemmMR+2*gemmMR]
		b0 := bp[(2*p2)*gemmNR : (2*p2)*gemmNR+gemmNR]
		b1 := bp[(2*p2+1)*gemmNR : (2*p2+1)*gemmNR+gemmNR]
		for r := 0; r < gemmMR; r++ {
			a0 := int32(av[2*r])
			a1 := int32(av[2*r+1])
			arow := acc[r*gemmNR : (r+1)*gemmNR]
			for j := 0; j < gemmNR; j++ {
				arow[j] += a0*int32(b0[j]) + a1*int32(b1[j])
			}
		}
	}
	for r := 0; r < gemmMR; r++ {
		copy(c[r*ldc:r*ldc+gemmNR], acc[r*gemmNR:(r+1)*gemmNR])
	}
}
