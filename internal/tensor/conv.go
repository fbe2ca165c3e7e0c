package tensor

import "fmt"

// ConvSpec describes the geometry of a 2-D convolution.
type ConvSpec struct {
	StrideH, StrideW int
	PadH, PadW       int
	Groups           int
}

// Canon returns the spec with zero values replaced by their defaults
// (stride 1, pad 0, groups 1).
func (s ConvSpec) Canon() ConvSpec {
	if s.StrideH == 0 {
		s.StrideH = 1
	}
	if s.StrideW == 0 {
		s.StrideW = 1
	}
	if s.Groups == 0 {
		s.Groups = 1
	}
	return s
}

// OutSize returns the output spatial size for an input of size in with
// kernel k under this spec (per dimension).
func convOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// ConvOutShape returns the output shape [N, Cout, OH, OW] for an input of
// shape [N, C, H, W] and weight of shape [Cout, C/groups, KH, KW].
func ConvOutShape(inShape, wShape []int, spec ConvSpec) []int {
	spec = spec.Canon()
	oh := convOutSize(inShape[2], wShape[2], spec.StrideH, spec.PadH)
	ow := convOutSize(inShape[3], wShape[3], spec.StrideW, spec.PadW)
	return []int{inShape[0], wShape[0], oh, ow}
}

func checkConvShapes(x, w, bias *Tensor, spec ConvSpec) ConvSpec {
	spec = spec.Canon()
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2d input must be [N,C,H,W], got %v", x.shape))
	}
	if w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2d weight must be [Cout,Cin/g,KH,KW], got %v", w.shape))
	}
	c := x.shape[1]
	cout, cg := w.shape[0], w.shape[1]
	if c%spec.Groups != 0 || cout%spec.Groups != 0 {
		panic(fmt.Sprintf("tensor: Conv2d channels C=%d Cout=%d not divisible by groups=%d", c, cout, spec.Groups))
	}
	if cg != c/spec.Groups {
		panic(fmt.Sprintf("tensor: Conv2d weight per-group channels %d != C/groups = %d", cg, c/spec.Groups))
	}
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != cout) {
		panic(fmt.Sprintf("tensor: Conv2d bias shape %v does not match Cout=%d", bias.shape, cout))
	}
	oh := convOutSize(x.shape[2], w.shape[2], spec.StrideH, spec.PadH)
	ow := convOutSize(x.shape[3], w.shape[3], spec.StrideW, spec.PadW)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2d output size %dx%d not positive for input %v kernel %v spec %+v", oh, ow, x.shape, w.shape, spec))
	}
	return spec
}

// pointwise reports whether a kh×kw convolution under this (canonical)
// spec is 1×1, unit-stride and unpadded. Its im2col is the identity: the
// group's [Cg, H·W] image slab already is the [Cg·KH·KW, OH·OW] column
// matrix, so the GEMM reads it in place and no col scratch is taken.
func (s ConvSpec) pointwise(kh, kw int) bool {
	return kh == 1 && kw == 1 && s.StrideH == 1 && s.StrideW == 1 && s.PadH == 0 && s.PadW == 0
}

// fillPad sets every element of dst to pad. A plain store loop on
// purpose: nearly every run is a conv's pad columns, one to three
// elements long, where a memclr call costs more than the stores.
func fillPad[T float32 | int8](dst []T, pad T) {
	for i := range dst {
		dst[i] = pad
	}
}

// im2colInto unrolls one sample's group slice into col [Cg*KH*KW, OH*OW].
// img is the [C, H, W] sample slice, c0 the first channel of the group.
// Out-of-image taps read pad: 0 for float32, the input zero-point code
// (the code of real 0.0) for int8, so padding contributes exactly zero
// after the zp·rowSum correction. It is the one im2col of both backends
// and only moves data — every col element is a copy of one img element or
// pad, so nothing here can touch the GEMM's reduction order.
//
// Each input element is moved by memmove wherever the geometry allows:
//
//   - unit stride both ways and OW == W (the "same" 3×3/pad 1, 5×5/pad 2
//     convolutions): a tap's whole col row is the image plane shifted by a
//     constant, so one copy moves every valid output row at once and the
//     pad columns — which received the neighbouring row's edge — are
//     overwritten afterwards, one strided store pass per column;
//   - unit horizontal stride otherwise: per output row one left-pad fill,
//     one copy of the contiguous image span, one right-pad fill;
//   - horizontally strided: the per-tap loop with its bounds branches.
func im2colInto[T float32 | int8](col, img []T, c0, cg, h, wd, kh, kw, oh, ow int, spec ConvSpec, pad T) {
	l := oh * ow
	for c := 0; c < cg; c++ {
		chImg := img[(c0+c)*h*wd : (c0+c+1)*h*wd]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := col[((c*kh+ky)*kw+kx)*l : ((c*kh+ky)*kw+kx+1)*l]
				if spec.StrideW != 1 {
					for oy := 0; oy < oh; oy++ {
						iy := oy*spec.StrideH - spec.PadH + ky
						if iy < 0 || iy >= h {
							fillPad(row[oy*ow:(oy+1)*ow], pad)
							continue
						}
						base := iy * wd
						for ox := 0; ox < ow; ox++ {
							ix := ox*spec.StrideW - spec.PadW + kx
							if ix < 0 || ix >= wd {
								row[oy*ow+ox] = pad
							} else {
								row[oy*ow+ox] = chImg[base+ix]
							}
						}
					}
					continue
				}
				// Output columns [lo, hi) of a row read the image at
				// column ox-PadW+kx; a pad at least as wide as the image
				// clamps to an all-pad row.
				lo := min(max(spec.PadW-kx, 0), ow)
				hi := max(min(wd+spec.PadW-kx, ow), lo)
				if spec.StrideH == 1 && ow == wd {
					// Output rows [oyLo, oyHi) read image rows; the copy
					// is clamped to the plane, which drops only elements
					// the pad fills below overwrite anyway.
					oyLo := min(max(spec.PadH-ky, 0), oh)
					oyHi := max(min(h+spec.PadH-ky, oh), oyLo)
					fillPad(row[:oyLo*ow], pad)
					fillPad(row[oyHi*ow:], pad)
					shift := (ky-spec.PadH)*wd + kx - spec.PadW
					if a, b := max(oyLo*ow+shift, 0), min(oyHi*ow+shift, h*wd); a < b {
						copy(row[a-shift:b-shift], chImg[a:b])
					}
					// One strided pass per pad column: columns [0, lo)
					// and [hi, ow) of the copied rows; none for the
					// centre tap.
					rows := row[oyLo*ow : oyHi*ow]
					for x := 0; x < lo; x++ {
						for i := x; i < len(rows); i += ow {
							rows[i] = pad
						}
					}
					for x := hi; x < ow; x++ {
						for i := x; i < len(rows); i += ow {
							rows[i] = pad
						}
					}
					continue
				}
				for oy := 0; oy < oh; oy++ {
					iy := oy*spec.StrideH - spec.PadH + ky
					dst := row[oy*ow : (oy+1)*ow]
					if iy < 0 || iy >= h {
						fillPad(dst, pad)
						continue
					}
					fillPad(dst[:lo], pad)
					if base := iy*wd - spec.PadW + kx; lo < hi {
						copy(dst[lo:hi], chImg[base+lo:base+hi])
					}
					fillPad(dst[hi:], pad)
				}
			}
		}
	}
}

// col2imAccInto scatter-adds a col gradient [Cg*KH*KW, OH*OW] back into
// the img gradient slice [C, H, W] for one sample's group.
func col2imAccInto(imgGrad []float32, col []float32, c0, cg, h, wd, kh, kw, oh, ow int, spec ConvSpec) {
	l := oh * ow
	for c := 0; c < cg; c++ {
		chGrad := imgGrad[(c0+c)*h*wd : (c0+c+1)*h*wd]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := col[((c*kh+ky)*kw+kx)*l : ((c*kh+ky)*kw+kx+1)*l]
				for oy := 0; oy < oh; oy++ {
					iy := oy*spec.StrideH - spec.PadH + ky
					if iy < 0 || iy >= h {
						continue
					}
					base := iy * wd
					for ox := 0; ox < ow; ox++ {
						ix := ox*spec.StrideW - spec.PadW + kx
						if ix < 0 || ix >= wd {
							continue
						}
						chGrad[base+ix] += row[oy*ow+ox]
					}
				}
			}
		}
	}
}

// Conv2d computes a 2-D convolution (technically cross-correlation, as in
// every deep-learning framework) of x [N,C,H,W] with weight
// [Cout,C/groups,KH,KW] and optional bias [Cout], using im2col + GEMM.
func Conv2d(x, w, bias *Tensor, spec ConvSpec) *Tensor {
	spec = checkConvShapes(x, w, bias, spec)
	out := New(ConvOutShape(x.shape, w.shape, spec)...)
	conv2dInto(out, x, w, bias, spec)
	return out
}

// Conv2dInto is Conv2d writing into a caller-provided dst of shape
// ConvOutShape(x, w, spec). It lets layers reuse an output buffer across
// forward passes instead of allocating one per call.
func Conv2dInto(dst, x, w, bias *Tensor, spec ConvSpec) {
	spec = checkConvShapes(x, w, bias, spec)
	want := ConvOutShape(x.shape, w.shape, spec)
	if !sameShape(dst.shape, want) {
		panic(fmt.Sprintf("tensor: Conv2dInto dst shape %v != expected %v", dst.shape, want))
	}
	conv2dInto(dst, x, w, bias, spec)
}

// conv2dInto is the forward kernel; spec must be canonical and shapes
// checked. Work is parallelized over the N×groups axis — each (sample,
// group) unit owns a disjoint slab of out, its own im2col scratch, and a
// strictly serial GEMM, so the per-element accumulation chains (and hence
// the bits of the result) never depend on the worker count. When there are
// fewer units than workers (single small image), the unit loop runs serial
// and the parallelism moves inside the GEMM instead, which partitions
// output columns without touching the chains either.
func conv2dInto(out, x, w, bias *Tensor, spec ConvSpec) {
	n, c, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, cg, kh, kw := w.shape[0], w.shape[1], w.shape[2], w.shape[3]
	oh := convOutSize(h, kh, spec.StrideH, spec.PadH)
	ow := convOutSize(wd, kw, spec.StrideW, spec.PadW)
	g := spec.Groups
	coutG := cout / g
	l := oh * ow
	kdim := cg * kh * kw

	// colLen is the im2col scratch one unit needs: none when the image
	// slab is the column matrix.
	pointwise := spec.pointwise(kh, kw)
	colLen := kdim * l
	if pointwise {
		colLen = 0
	}

	unit := func(u int, col []float32, ar *arena) {
		s, gi := u/g, u%g
		img := x.data[s*c*h*wd : (s+1)*c*h*wd]
		outImg := out.data[s*cout*l : (s+1)*cout*l]
		if pointwise {
			col = img[gi*cg*l : (gi+1)*cg*l]
		} else {
			im2colInto(col, img, gi*cg, cg, h, wd, kh, kw, oh, ow, spec, 0)
		}
		wg := w.data[gi*coutG*kdim : (gi+1)*coutG*kdim]
		og := outImg[gi*coutG*l : (gi+1)*coutG*l]
		if ar != nil {
			gemmSerial(og, l, wg, kdim, false, col, l, false, coutG, kdim, l, false, ar)
		} else {
			gemmParallel(og, l, wg, kdim, false, col, l, false, coutG, kdim, l, false)
		}
		if bias != nil {
			for oc := gi * coutG; oc < (gi+1)*coutG; oc++ {
				bv := bias.data[oc]
				row := outImg[oc*l : (oc+1)*l]
				for i := range row {
					row[i] += bv
				}
			}
		}
	}

	units := n * g
	if Workers() > 1 && units >= Workers() {
		parallelForChunks(units, func(lo, hi int) {
			ar := getArena()
			ar.reserve(colLen + gemmPackBound(coutG, kdim, l))
			col := ar.take(colLen)
			for u := lo; u < hi; u++ {
				unit(u, col, ar)
			}
			ar.release()
		})
		return
	}
	ar := getArena()
	ar.reserve(colLen)
	col := ar.take(colLen)
	for u := 0; u < units; u++ {
		unit(u, col, nil)
	}
	ar.release()
}

// Conv2dGrads holds the result of Conv2dBackward.
type Conv2dGrads struct {
	Input  *Tensor // dL/dx, shape of x
	Weight *Tensor // dL/dW, shape of w
	Bias   *Tensor // dL/db, shape [Cout]; nil when bias was nil
}

// Conv2dBackward computes the gradients of a convolution given the
// upstream gradient gradOut (shape of the forward output). Pass
// needInput=false to skip the input-gradient computation for the first
// layer of a network.
//
// Parallelism: the weight gradient accumulates over samples, so its sample
// loop stays sequential and only the groups axis (disjoint dW slabs) fans
// out; the input gradient has no cross-unit accumulation and parallelizes
// over the full N×groups axis. Both choices keep every accumulation chain
// independent of the worker count.
func Conv2dBackward(x, w *Tensor, hasBias bool, gradOut *Tensor, spec ConvSpec, needInput bool) Conv2dGrads {
	spec = checkConvShapes(x, w, nil, spec)
	n, c, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, cg, kh, kw := w.shape[0], w.shape[1], w.shape[2], w.shape[3]
	oh := convOutSize(h, kh, spec.StrideH, spec.PadH)
	ow := convOutSize(wd, kw, spec.StrideW, spec.PadW)
	if !sameShape(gradOut.shape, []int{n, cout, oh, ow}) {
		panic(fmt.Sprintf("tensor: Conv2dBackward gradOut shape %v != expected %v", gradOut.shape, []int{n, cout, oh, ow}))
	}
	g := spec.Groups
	coutG := cout / g
	l := oh * ow
	kdim := cg * kh * kw

	grads := Conv2dGrads{Weight: New(w.shape...)}
	if hasBias {
		grads.Bias = New(cout)
		for s := 0; s < n; s++ {
			for oc := 0; oc < cout; oc++ {
				row := gradOut.data[(s*cout+oc)*l : (s*cout+oc+1)*l]
				var acc float32
				for _, v := range row {
					acc += v
				}
				grads.Bias.data[oc] += acc
			}
		}
	}

	// dW pass: per group, sequential over samples.
	// dW_g += gOut_g [coutG, l] × colᵀ (col is [kdim, l]; the image slab
	// itself for a pointwise conv, as in the forward pass).
	pointwise := spec.pointwise(kh, kw)
	colLen := kdim * l
	if pointwise {
		colLen = 0
	}
	dwGroup := func(gi int, col []float32, ar *arena) {
		gwg := grads.Weight.data[gi*coutG*kdim : (gi+1)*coutG*kdim]
		for s := 0; s < n; s++ {
			img := x.data[s*c*h*wd : (s+1)*c*h*wd]
			if pointwise {
				col = img[gi*cg*l : (gi+1)*cg*l]
			} else {
				im2colInto(col, img, gi*cg, cg, h, wd, kh, kw, oh, ow, spec, 0)
			}
			gog := gradOut.data[s*cout*l+gi*coutG*l : s*cout*l+(gi+1)*coutG*l]
			if ar != nil {
				gemmSerial(gwg, kdim, gog, l, false, col, l, true, coutG, l, kdim, true, ar)
			} else {
				gemmParallel(gwg, kdim, gog, l, false, col, l, true, coutG, l, kdim, true)
			}
		}
	}
	if Workers() > 1 && g >= Workers() {
		parallelForChunks(g, func(lo, hi int) {
			ar := getArena()
			ar.reserve(colLen + gemmPackBound(coutG, l, kdim))
			col := ar.take(colLen)
			for gi := lo; gi < hi; gi++ {
				dwGroup(gi, col, ar)
			}
			ar.release()
		})
	} else {
		ar := getArena()
		ar.reserve(colLen)
		col := ar.take(colLen)
		for gi := 0; gi < g; gi++ {
			dwGroup(gi, col, nil)
		}
		ar.release()
	}

	if !needInput {
		return grads
	}

	// dX pass: colGrad = W_gᵀ [kdim, coutG] × gOut_g [coutG, l], scattered
	// back by col2im. Units (s, gi) touch disjoint regions of grads.Input.
	// The GEMM overwrites colGrad, so the scratch needs no zeroing.
	grads.Input = New(x.shape...)
	dxUnit := func(u int, colGrad []float32, ar *arena) {
		s, gi := u/g, u%g
		wg := w.data[gi*coutG*kdim : (gi+1)*coutG*kdim]
		gog := gradOut.data[s*cout*l+gi*coutG*l : s*cout*l+(gi+1)*coutG*l]
		if ar != nil {
			gemmSerial(colGrad, l, wg, kdim, true, gog, l, false, kdim, coutG, l, false, ar)
		} else {
			gemmParallel(colGrad, l, wg, kdim, true, gog, l, false, kdim, coutG, l, false)
		}
		imgGrad := grads.Input.data[s*c*h*wd : (s+1)*c*h*wd]
		col2imAccInto(imgGrad, colGrad, gi*cg, cg, h, wd, kh, kw, oh, ow, spec)
	}
	units := n * g
	if Workers() > 1 && units >= Workers() {
		parallelForChunks(units, func(lo, hi int) {
			ar := getArena()
			ar.reserve(kdim*l + gemmPackBound(kdim, coutG, l))
			colGrad := ar.take(kdim * l)
			for u := lo; u < hi; u++ {
				dxUnit(u, colGrad, ar)
			}
			ar.release()
		})
	} else {
		ar := getArena()
		ar.reserve(kdim * l)
		colGrad := ar.take(kdim * l)
		for u := 0; u < units; u++ {
			dxUnit(u, colGrad, nil)
		}
		ar.release()
	}
	return grads
}
