package tensor

// Direct conv lowering: the B staging convJob.units picks for a stride-1
// conv, computed without a column matrix, on both backends.
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
// one GEMM driver reads it in place through that table (gemmOp.offs)
// instead of packing an im2col matrix into panels: same loop nest, same
// micro-kernels. The Wp − OW virtual columns past each output row's end
// are computed and discarded: the GEMM runs over roundUp((OH−1)·Wp + OW,
// gemmNR) columns into scratch, and compaction copies the valid ones to
// the output, adding the bias on float32 as it goes. A comes as on the
// other stagings: the float32 weights read in place, the int8 codes
// read in place from panels packed once (PanelsI8).
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
// discarded columns after every output row. With bias set (the group's
// coutG biases, float32 only) it adds bias[r] to row r as it copies: the
// one add after the full chain that a separate bias pass makes, so the
// bits are the same and the output is written once.
func compactCols[T elem](cv *convGeom, res, vres, bias []T) {
	_, wp := cv.planeDims()
	oh, ow, nv := cv.oh, cv.ow, cv.virtualCols()
	for r := 0; r < cv.coutG; r++ {
		out, in := res[r*cv.l:(r+1)*cv.l], vres[r*nv:]
		for oy := 0; oy < oh; oy++ {
			dst, src := out[oy*ow:(oy+1)*ow], in[oy*wp:oy*wp+ow]
			if bias == nil {
				copy(dst, src)
				continue
			}
			bv := bias[r]
			for i, v := range src {
				dst[i] = v + bv
			}
		}
	}
}
