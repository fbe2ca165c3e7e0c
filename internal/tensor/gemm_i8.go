package tensor

// The int8 backend of the blocked GEMM (gemm.go runs it): int8 operands,
// int32 accumulation, and panels laid out for the AVX2 VPMADDWD
// multiply-accumulate:
//
//   - A panels hold sign-extended int16 pairs, 2·gemmMR per k-pair:
//     element (r, p) of a panel sits at (p/2)·8 + 2r + p%2, so each
//     row's adjacent-k pair is one 32-bit broadcastable unit
//     (VPBROADCASTD needs the pair pre-widened as a 32-bit lane).
//   - B panels hold raw int8 codes in plain row-major gemmNR-column
//     slabs: element (p, c) at p·16 + c. The pack is therefore a pure row
//     copy — no widening, no interleave — and the kernel does the work
//     instead: VPMOVSXBW widens two adjacent k-rows to int16 and one
//     VPUNPCKLWD/VPUNPCKHWD pair forms the (k, k+1) pairs VPMADDWD needs,
//     amortized over the gemmMR A-rows of the tile. Unpack works within
//     128-bit lanes, so the kernel's accumulators hold columns in the
//     permuted order {0–3, 8–11}/{4–7, 12–15}; VPERM2I128 restores
//     natural order at tile load/store, once per tile instead of per k.
//   - Panels are zero-padded to whole tiles and an even k (kStep 2): in
//     integer arithmetic a 0·x term is exactly neutral, so padding never
//     changes results (unlike float32, where panels stay dense to keep
//     chains exact).
//   - Accumulators are int32 and exact, so ANY blocking, worker split or
//     kernel choice produces bit-identical sums; the conv and linear
//     drivers (conv_i8.go) fold them back to float32 in the requant
//     epilogue.
//   - The direct conv lowering (conv_direct.go) has no B panel: its ind
//     kernel reads each B row pair in place from the image plane, whose
//     border is the pad value — the input zero-point code — and its A
//     panels are a conv's codes packed once over all of k
//     (ConvPanelsI8). Its sums are exact like every other path's.
//
// The scalar kernels compute the same sums in plain loops; the parity
// tests (gemm_i8_test.go and the amd64-tagged kernel test) pin the asm
// and scalar paths to each other and to the naive reference on
// randomized shapes.

// i8Kernels is the int8 backend.
var i8Kernels = &gemmKernels[int8, int16, int8, int32]{packA: packAI8, packB: packBI8, macro: gemmI8Macro, ind: gemmI8MacroInd, kStep: 2}

// packAI8 copies the mb×kb block of A at (ic, pc) into mr-row panels with
// the pair-interleaved layout described atop this file. Panels have a
// fixed 2·gemmMR stride per k-pair; missing rows (edge panels) and the
// odd-k tail are zero-padded, which integer accumulation treats as
// exactly neutral. A is row-major — every int8 caller's A is a layer's
// weight codes — and transA is rejected: a transposed-A branch in the
// row loop costs the int8 forward ≈ 3 % (paired runs).
func packAI8(apack []int16, a []int8, lda int, transA bool, ic, pc, mb, kb int) {
	if transA {
		panic("tensor: the int8 GEMM packs row-major A only")
	}
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

// gemmI8MacroInd is gemmI8Macro over B read in place: the int8 backend's
// ind. Every tile is full width; row remainders run the scalar twin over
// the zero-padded panel's live rows. offs holds roundUp(kb, 2) entries:
// with kb odd, the last pair's second row is a duplicate tap whose A
// element is the panel's zero pad, so it adds nothing.
func gemmI8MacroInd(dst []int32, ldc, ic int, apack []int16, astride int, plane []int8, offs []int32, mb, nb, kb int, first bool) {
	kp := (kb + 1) / 2
	for jr := 0; jr < nb; jr += gemmNR {
		base := plane[jr:]
		for ir := 0; ir < mb; ir += gemmMR {
			ap := apack[ir*astride : ir*astride+kp*2*gemmMR]
			kernI8Ind(dst[(ic+ir)*ldc+jr:], ldc, ap, base, offs, min(mb-ir, gemmMR), kp, first)
		}
	}
}

// kernI8 runs the full 4×16 tile on the AVX2 kernel when the CPU has it
// (the gemmAVX2 gate), else on the scalar reference: identical bits
// either way, integer accumulation being exact.
func kernI8(c []int32, ldc int, ap []int16, bp []int8, kp int, first bool) {
	if gemmAVX2 && kp > 0 {
		gemmKernI8AVX(&c[0], ldc, &ap[0], &bp[0], kp, first)
		return
	}
	kernI8x16scalar(c, ldc, ap, bp, kp, first)
}

// kernI8Ind runs a full 4-row in-place-B tile on the AVX2 kernel when the
// gemmAVX2 gate holds, else — and for row remainders — on the scalar
// twin: identical sums either way.
func kernI8Ind(c []int32, ldc int, ap []int16, base []int8, offs []int32, rows, kp int, first bool) {
	if gemmAVX2 && rows == gemmMR {
		gemmKernI8IndAVX(&c[0], ldc, &ap[0], &base[0], &offs[0], kp, first)
		return
	}
	kernI8IndScalar(c, ldc, ap, base, offs, rows, kp, first)
}

// kernI8IndScalar is kernI8x16scalar over the tile's first rows rows with
// B rows 2p and 2p+1 at base[offs[2p]:] and base[offs[2p+1]:].
func kernI8IndScalar(c []int32, ldc int, ap []int16, base []int8, offs []int32, rows, kp int, first bool) {
	var acc [gemmMR * gemmNR]int32
	if !first {
		for r := 0; r < rows; r++ {
			copy(acc[r*gemmNR:(r+1)*gemmNR], c[r*ldc:r*ldc+gemmNR])
		}
	}
	for p2 := 0; p2 < kp; p2++ {
		av := ap[p2*2*gemmMR : p2*2*gemmMR+2*gemmMR]
		b0 := base[offs[2*p2]:][:gemmNR]
		b1 := base[offs[2*p2+1]:][:gemmNR]
		for r := 0; r < rows; r++ {
			a0 := int32(av[2*r])
			a1 := int32(av[2*r+1])
			arow := acc[r*gemmNR : (r+1)*gemmNR]
			for j := range arow {
				arow[j] += a0*int32(b0[j]) + a1*int32(b1[j])
			}
		}
	}
	for r := 0; r < rows; r++ {
		copy(c[r*ldc:r*ldc+gemmNR], acc[r*gemmNR:(r+1)*gemmNR])
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
