package tensor

// Direct conv lowering: a stride-1 conv computed without a column matrix,
// on both backends.
//
// A unit's [Cg, H, W] input slab is copied once into a plane with a border
// of pad values, [Cg, Hp, Wp] with Hp = H + 2·PadH and Wp = W + 2·PadW.
// The pad is the one im2col writes: +0.0 on float32, the input zero-point
// code (the code of real 0.0) on int8. Output pixel (oy, ox) is computed
// at virtual column v = oy·Wp + ox, and the column matrix element for tap
// k = (c, ky, kx) at that pixel is then
//
//	plane[off[k] + v],  off[k] = c·Hp·Wp + ky·Wp + kx
//
// — the image element im2col would copy there, or the border's pad where
// im2col writes pad. So B row k is the plane shifted by off[k], and the
// backend's macro kernel reads it in place through that table (bstride 1)
// instead of from an im2col matrix repacked into panels: the same
// micro-kernels the packed path runs through panelOffs
// (gemmKern4x16IndAVX: one offset load per k step; gemmKernI8IndAVX: two
// per k-pair). The Wp − OW virtual columns past each output row's end are
// computed and discarded: the GEMM runs over roundUp((OH−1)·Wp + OW,
// gemmNR) columns into scratch, and compaction copies the valid ones to
// the output. A is packed per call, or on int8 read in place from panels
// packed once at quantization (ConvPanelsI8).
//
// Bits: on float32 every output element is the ascending-k chain over the
// same products as on the im2col path, pad products w·pad included (w·0
// is NaN for an Inf or NaN weight on both), in the same micro-kernel
// arithmetic, k-blocked at the same gemmKC multiples — so the determinism
// contract of gemm.go holds and the result equals the im2col lowering's
// bit for bit. On int8 the sums are int32 and exact, so they equal the
// im2col lowering's whatever the order.

// direct reports whether the conv runs on the direct lowering: stride 1,
// not pointwise (that one reads its slab in place already), virtual
// columns at most 1.25× the output pixels (on a 4×4 map with pad 1 they
// would double them), and plane offsets that fit the kernels' int32.
func (cv *convGeom) direct() bool {
	hp, wp := cv.planeDims()
	return cv.spec.StrideH == 1 && cv.spec.StrideW == 1 && !cv.spec.pointwise(cv.kh, cv.kw) &&
		4*cv.virtualCols() <= 5*cv.l && cv.cg*hp*wp <= 1<<30
}

// planeDims returns the bordered plane's height and width.
func (cv *convGeom) planeDims() (hp, wp int) {
	return cv.h + 2*cv.spec.PadH, cv.wd + 2*cv.spec.PadW
}

// virtualCols is the number of virtual columns a unit's GEMM computes:
// through the last output pixel, in whole micro-tiles.
func (cv *convGeom) virtualCols() int {
	_, wp := cv.planeDims()
	return roundUp((cv.oh-1)*wp+cv.ow, gemmNR)
}

// planeLen is the plane's length: the bordered channels plus the tail the
// last tile's discarded columns read past them.
func (cv *convGeom) planeLen() int {
	hp, wp := cv.planeDims()
	return cv.cg*hp*wp + gemmNR
}

// tapOffsets writes off[k] for every tap k = (c, ky, kx) in the GEMM's k
// order; they ascend. Slots past kdim (the int8 k-pair pad) repeat the
// last tap: a kernel may read them, and their A elements are zero.
func (cv *convGeom) tapOffsets(offs []int32) {
	hp, wp := cv.planeDims()
	k := 0
	for c := 0; c < cv.cg; c++ {
		for ky := 0; ky < cv.kh; ky++ {
			for kx := 0; kx < cv.kw; kx++ {
				offs[k] = int32(c*hp*wp + ky*wp + kx)
				k++
			}
		}
	}
	for ; k < len(offs); k++ {
		offs[k] = offs[k-1]
	}
}

// fillPlane copies a unit's [Cg, H, W] slab img into the interior of
// plane, whose border (and tail) already hold the pad value.
func fillPlane[T elem](cv *convGeom, plane, img []T) {
	hp, wp := cv.planeDims()
	h, w := cv.h, cv.wd
	for c := 0; c < cv.cg; c++ {
		dst := plane[(c*hp+cv.spec.PadH)*wp+cv.spec.PadW:]
		src := img[c*h*w : (c+1)*h*w]
		if wp == w {
			copy(dst, src)
			continue
		}
		for y := 0; y < h; y++ {
			copy(dst[y*wp:y*wp+w], src[y*w:(y+1)*w])
		}
	}
}

// fillPlanePad sets every element of plane to pad: clear for a zero pad,
// else one store and doubling copies — a few memmoves for a whole plane
// (an int8 plane bordered with a non-zero zero-point code), where
// fillPad's store loop would pay per element.
func fillPlanePad[T elem](plane []T, pad T) {
	var zero T
	if pad == zero || len(plane) == 0 {
		clear(plane)
		return
	}
	plane[0] = pad
	for n := 1; n < len(plane); n *= 2 {
		copy(plane[n:], plane[:n])
	}
}

// compactCols copies a unit's [coutG, OH·OW] output res out of its
// virtual-column result vres [coutG, virtualCols], dropping the Wp − OW
// discarded columns after every output row.
func compactCols[T elem](cv *convGeom, res, vres []T) {
	_, wp := cv.planeDims()
	oh, ow, nv := cv.oh, cv.ow, cv.virtualCols()
	for r := 0; r < cv.coutG; r++ {
		out, in := res[r*cv.l:(r+1)*cv.l], vres[r*nv:]
		for oy := 0; oy < oh; oy++ {
			copy(out[oy*ow:(oy+1)*ow], in[oy*wp:oy*wp+ow])
		}
	}
}

// directUnits is convJob.units on the direct lowering: per unit load →
// plane → GEMM over virtual columns → compaction → finish. The border is
// written once per chunk; every unit overwrites only the interior.
func (j *convJob[In, AP, Out]) directUnits(lo, hi int, fanned bool) {
	cv := j.cv
	nv, planeLen, nk := cv.virtualCols(), cv.planeLen(), roundUp(cv.kdim, j.gemm.kStep)
	var sc scratch
	arenaOf[In](&sc).reserve(j.inLen + planeLen)
	arenaOf[Out](&sc).reserve(j.accLen + cv.coutG*nv)
	arenaOf[int32](&sc).reserve(nk)
	if fanned && j.panels == nil {
		directReserve(j.gemm, &sc, cv.coutG, cv.kdim, nv)
	}
	buf, plane := arenaOf[In](&sc).take(j.inLen), arenaOf[In](&sc).take(planeLen)
	acc, vres := arenaOf[Out](&sc).take(j.accLen), arenaOf[Out](&sc).take(cv.coutG*nv)
	offs := arenaOf[int32](&sc).take(nk)
	cv.tapOffsets(offs)
	fillPlanePad(plane, j.pad)
	for u := lo; u < hi; u++ {
		s, gi := u/cv.g, u%cv.g
		fillPlane(cv, plane, j.st.load(buf, s, gi))
		wg := j.w[gi*cv.coutG*cv.kdim : (gi+1)*cv.coutG*cv.kdim]
		var pg []AP
		if j.panels != nil {
			n := len(j.panels) / cv.g
			pg = j.panels[gi*n : (gi+1)*n]
		}
		if fanned {
			directSerial(j.gemm, vres, nv, wg, cv.kdim, pg, plane, offs, cv.coutG, cv.kdim, nv, &sc)
		} else {
			directParallel(j.gemm, vres, nv, wg, cv.kdim, pg, plane, offs, cv.coutG, cv.kdim, nv)
		}
		res := j.st.result(acc, s, gi)
		compactCols(cv, res, vres)
		j.st.finish(res, s, gi)
	}
	sc.release()
}

// directReserve adds the A pack panel of one directSerial call of the
// given shape to sc's reservations; there is no B panel.
func directReserve[In, AP, Out elem](g *gemmKernels[In, AP, Out], sc *scratch, m, k, n int) {
	la, _ := g.panelLens(m, k, n)
	arenaOf[AP](sc).reserve(la)
}

// directSerial computes dst = A×B on the calling goroutine, A [m, k] row
// major (rows lda apart) and B [k, n] read in place as B[p, j] =
// plane[offs[p]+j], n a multiple of gemmNR; offs holds roundUp(k, kStep)
// offsets, any past k duplicating offs[k-1]. The pc/ic loop nest is
// gemmSerial's; B needs no panel and no jc blocking. A's panels are
// packed per block from a, or read in place from panels when A was
// packed once over all of k (ConvPanelsI8's layout: block (ic, pc) at
// ic·roundUp(k, kStep) + pc·gemmMR), which takes no scratch. k > 0.
func directSerial[In, AP, Out elem](g *gemmKernels[In, AP, Out], dst []Out, ldc int, a []In, lda int, panels []AP, plane []In, offs []int32, m, k, n int, sc *scratch) {
	// The assembly kernels read B without bounds checks: every row must
	// fit in the plane, and the offsets ascend, so the last decides.
	if n%gemmNR != 0 || int(offs[k-1])+n > len(plane) {
		panic("tensor: direct conv reads past its plane")
	}
	var apack []AP
	if panels == nil {
		arA := arenaOf[AP](sc)
		defer arA.restore(arA.mark())
		la, _ := g.panelLens(m, k, n)
		apack = arA.take(la)
	}
	nk := roundUp(k, g.kStep)
	for pc := 0; pc < k; pc += gemmKC {
		kb := min(k-pc, gemmKC)
		ps := roundUp(kb, g.kStep)
		for ic := 0; ic < m; ic += gemmMC {
			mb := min(m-ic, gemmMC)
			if panels != nil {
				g.macro(dst[ic*ldc:], ldc, panels[ic*nk+pc*gemmMR:], nk, plane, 1, offs[pc:pc+ps], mb, n, kb, pc == 0)
				continue
			}
			g.packA(apack, a, lda, false, ic, pc, mb, kb)
			g.macro(dst[ic*ldc:], ldc, apack, ps, plane, 1, offs[pc:pc+ps], mb, n, kb, pc == 0)
		}
	}
}

// directParallel is directSerial split across Workers() as gemmSplit
// splits gemmParallel's outputs; each worker packs into its own scratch,
// or all read the shared panels.
func directParallel[In, AP, Out elem](g *gemmKernels[In, AP, Out], dst []Out, ldc int, a []In, lda int, panels []AP, plane []In, offs []int32, m, k, n int) {
	rows, dim, chunk := gemmSplit(m, k, n)
	run := func(dst []Out, a []In, panels []AP, plane []In, m, n int) {
		var sc scratch
		if panels == nil {
			directReserve(g, &sc, m, k, n)
		}
		directSerial(g, dst, ldc, a, lda, panels, plane, offs, m, k, n, &sc)
		sc.release()
	}
	if chunk == 0 {
		run(dst, a, panels, plane, m, n)
		return
	}
	runParallel(dim, chunk, (dim+chunk-1)/chunk, func(lo, hi int) {
		if !rows {
			run(dst[lo:], a, panels, plane[lo:], m, hi-lo)
			return
		}
		pl := panels
		if pl != nil {
			pl = pl[lo*roundUp(k, g.kStep):]
		}
		run(dst[lo*ldc:], a[lo*lda:], pl, plane, hi-lo, n)
	})
}
