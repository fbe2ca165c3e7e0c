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
//   - The one micro-kernel, gemmKernI8IndAVX, reads B row k at
//     base+offs[k]: a packed panel passes panelOffs (row k at k·16), B
//     read in place its own offsets (the direct conv lowering's taps into
//     a plane bordered with the input zero-point code, conv_direct.go).
//   - A is always a layer's weight codes, packed once over all of k
//     (PanelsI8) by packAI8 when the layer is quantized, and every GEMM
//     of the layer — each conv staging, the linear layer's — reads those
//     panels in place. B is the quantized activations.
//   - Panels are zero-padded to whole tiles and an even k (kStep 2): in
//     integer arithmetic a 0·x term is exactly neutral, so padding never
//     changes results (unlike float32, where panels stay dense to keep
//     chains exact).
//   - Accumulators are int32 and exact, so ANY blocking, worker split,
//     lowering or kernel choice produces bit-identical sums; the conv and
//     linear drivers (conv_i8.go) fold them back to float32 in the
//     requant epilogue.
//
// The scalar kernels compute the same sums in plain loops; the parity
// tests (gemm_i8_test.go and the amd64-tagged kernel test) pin the asm
// and scalar paths to each other and to the naive reference on
// randomized shapes.

// i8Kernels is the int8 backend.
var i8Kernels = &gemmKernels[int8, int16, int32]{packB: packBI8, macro: gemmI8Macro, kStep: 2}

// packAI8 packs the row-major mb×kb matrix a into gemmMR-row panels with
// the pair-interleaved layout described atop this file, a fixed 2·gemmMR
// stride per k-pair. apack must be zeroed: the rows missing from an edge
// panel and the odd-k tail stay zero, which integer accumulation treats
// as exactly neutral. PackPanelsI8 is its one caller.
func packAI8(apack []int16, a []int8, mb, kb int) {
	stride := 2 * gemmMR
	for i := 0; i < mb; i++ {
		panel := apack[(i/gemmMR)*stride*((kb+1)/2):]
		o := 2 * (i % gemmMR)
		for p, v := range a[i*kb : (i+1)*kb] {
			panel[(p>>1)*stride+o+(p&1)] = int16(v)
		}
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

// gemmI8Macro is the int8 macro kernel (gemmKernels.macro): the panel of
// rows ir… starts at apack[ir·astride:] and the k-stride is unused, the
// panel layout fixing it. Full-width tiles run kernI8Ind — the AVX2
// kernel on 4-row tiles, its scalar twin on row remainders — and tiles
// narrower than gemmNR, which only packed panels have, kernI8Edge. offs
// holds roundUp(kb, 2) entries: with kb odd, the last pair's second row
// is the panel's zero pad row or, on the plane, a duplicate tap; either
// way its A element is zero, so it adds nothing. first selects overwrite
// vs accumulate (k-chunks after the first add onto the stored partial
// sums — exact for int32).
func gemmI8Macro(dst []int32, ldc int, apack []int16, astride, _ int, b []int8, bstride int, offs []int32, mb, nb, kb int, first bool) {
	kp := (kb + 1) / 2
	for jr := 0; jr < nb; jr += gemmNR {
		cols := min(nb-jr, gemmNR)
		bt := b[jr*bstride:]
		for ir := 0; ir < mb; ir += gemmMR {
			rows := min(mb-ir, gemmMR)
			ap := apack[ir*astride : ir*astride+kp*2*gemmMR]
			c := dst[ir*ldc+jr:]
			if cols < gemmNR {
				kernI8Edge(c, ldc, ap, bt, rows, cols, kp, first)
				continue
			}
			kernI8Ind(c, ldc, ap, bt, offs, rows, kp, first)
		}
	}
}

// kernI8Ind runs a full 4-row tile on the AVX2 kernel when the gemmAVX2
// gate holds, else — and for row remainders — on the scalar twin:
// identical sums either way, integer accumulation being exact. B rows k
// and k+1 of each k-pair are the gemmNR codes at base[offs[k]:] and
// base[offs[k+1]:]; slicing offs to 2·kp entries keeps the assembly from
// reading past a short table.
func kernI8Ind(c []int32, ldc int, ap []int16, base []int8, offs []int32, rows, kp int, first bool) {
	offs = offs[:2*kp]
	if gemmAVX2 && rows == gemmMR {
		gemmKernI8IndAVX(&c[0], ldc, &ap[0], &base[0], &offs[0], kp, first)
		return
	}
	kernI8IndScalar(c, ldc, ap, base, offs, rows, kp, first)
}

// kernI8IndScalar is the portable micro-kernel over the tile's first rows
// rows: per k-pair it forms the same two-term products VPMADDWD computes
// and accumulates them in int32.
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

// kernI8Edge handles tiles narrower than gemmNR columns, walking the same
// padded panels (A pair-interleaved, B row-major).
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
