package tensor

// Convolution on both backends. convJob.units is the one unit loop of
// both forwards: load, stage B (conv_direct.go's bordered plane, or the
// pointwise slab or im2col matrix), the one GEMM driver, finish. The
// float32 backward passes share its fan-out and im2col.

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

// ConvCropBox returns the output box a cropped forward of a groups-1 conv
// (cin input channels, weight shape wShape, spec) computes to cover the
// box [y0, y1) × [x0, x1) of its oh × ow output plane. The cropped forward
// reads the box's receptive input, its padding written out, under Pad 0.
// Of the boxes inside the plane that contain the given one, it picks the
// one with the fewest GEMM columns among those whose crop runs every
// column on the vector micro-kernel without an im2col copy: the direct
// lowering for a stride-1 spatial conv, whole column tiles of the packed
// GEMM for any other. A crop off those paths pays an im2col copy per
// column or scalar products, several times the cost per column. With no
// such box it returns the given one.
func ConvCropBox(y0, y1, x0, x1, oh, ow, cin int, wShape []int, spec ConvSpec) (int, int, int, int) {
	spec = spec.Canon()
	crop := spec
	crop.PadH, crop.PadW = 0, 0
	cout, kh, kw := wShape[0], wShape[2], wShape[3]
	spatial := spec.StrideH == 1 && spec.StrideW == 1 && !spec.pointwise(kh, kw)
	cols := func(h, w int) (int, bool) {
		cv := convGeom{spec: crop, n: 1, c: cin, h: (h-1)*spec.StrideH + kh, wd: (w-1)*spec.StrideW + kw,
			cout: cout, cg: cin, kh: kh, kw: kw, oh: h, ow: w, g: 1, coutG: cout, l: h * w, kdim: cin * kh * kw}
		if spatial {
			return cv.virtualCols(), cv.direct()
		}
		return cv.l, cv.l%gemmNR == 0 && !gemmTiny(cout, cv.kdim, cv.l)
	}
	bh, bw := y1-y0, x1-x0
	best, bestH, bestW := -1, bh, bw
	for h := bh; h <= oh && (best < 0 || h*bw < best); h++ {
		for w := bw; w <= ow; w++ {
			if c, ok := cols(h, w); ok {
				if best < 0 || c < best {
					best, bestH, bestW = c, h, w
				}
				break // wider boxes of this height only cost more
			}
		}
	}
	y0, x0 = min(y0, oh-bestH), min(x0, ow-bestW)
	return y0, y0 + bestH, x0, x0 + bestW
}

// convGeom is a checked convolution's geometry: input [N,C,H,W], weight
// [Cout,Cg,KH,KW] in G groups, output [N,Cout,OH,OW]. Each (sample,
// group) unit is one [coutG, kdim] × [kdim, l] GEMM.
type convGeom struct {
	spec                     ConvSpec
	n, c, h, wd              int
	cout, cg, kh, kw, oh, ow int
	g, coutG, l, kdim        int
}

// checkConvShapes checks a convolution of x with a weight of shape wShape
// under spec, on either backend, and returns its geometry.
func checkConvShapes(x *Tensor, wShape []int, spec ConvSpec) convGeom {
	spec = spec.Canon()
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2d input must be [N,C,H,W], got %v", x.shape))
	}
	if len(wShape) != 4 {
		panic(fmt.Sprintf("tensor: Conv2d weight must be [Cout,Cin/g,KH,KW], got %v", wShape))
	}
	cv := convGeom{spec: spec, n: x.shape[0], c: x.shape[1], h: x.shape[2], wd: x.shape[3],
		cout: wShape[0], cg: wShape[1], kh: wShape[2], kw: wShape[3], g: spec.Groups}
	if cv.c%cv.g != 0 || cv.cout%cv.g != 0 {
		panic(fmt.Sprintf("tensor: Conv2d channels C=%d Cout=%d not divisible by groups=%d", cv.c, cv.cout, cv.g))
	}
	if cv.cg != cv.c/cv.g {
		panic(fmt.Sprintf("tensor: Conv2d weight per-group channels %d != C/groups = %d", cv.cg, cv.c/cv.g))
	}
	cv.oh = convOutSize(cv.h, cv.kh, spec.StrideH, spec.PadH)
	cv.ow = convOutSize(cv.wd, cv.kw, spec.StrideW, spec.PadW)
	if cv.oh <= 0 || cv.ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2d output size %dx%d not positive for input %v kernel %v spec %+v", cv.oh, cv.ow, x.shape, wShape, spec))
	}
	cv.coutG, cv.l, cv.kdim = cv.cout/cv.g, cv.oh*cv.ow, cv.cg*cv.kh*cv.kw
	return cv
}

// checkDst panics unless dst has the convolution's output shape.
func (cv *convGeom) checkDst(dst *Tensor, op string) {
	if want := [4]int{cv.n, cv.cout, cv.oh, cv.ow}; !sameShape(dst.shape, want[:]) {
		panic(fmt.Sprintf("tensor: %s dst shape %v != expected %v", op, dst.shape, want))
	}
}

// colLen is the im2col scratch one unit needs: none when the image slab
// is the column matrix.
func (cv *convGeom) colLen() int {
	if cv.spec.pointwise(cv.kh, cv.kw) {
		return 0
	}
	return cv.kdim * cv.l
}

// slab returns sample s's channels of group gi, [Cg, H, W], out of the
// [N, C, H, W] data x: all a unit reads of its input.
func slab[T elem](cv *convGeom, x []T, s, gi int) []T {
	lo := (s*cv.c + gi*cv.cg) * cv.h * cv.wd
	return x[lo : lo+cv.cg*cv.h*cv.wd]
}

// convCols returns a unit's [Cg·KH·KW, OH·OW] column matrix over its
// [Cg, H, W] input slab img: img itself for a pointwise conv, else col
// filled by im2col with pad.
func convCols[T elem](cv *convGeom, col, img []T, pad T) []T {
	if cv.spec.pointwise(cv.kh, cv.kw) {
		return img
	}
	im2colInto(col, img, 0, cv.cg, cv.h, cv.wd, cv.kh, cv.kw, cv.oh, cv.ow, cv.spec, pad)
	return col
}

// convUnits runs chunk over a conv's units [0, units) — (sample, group)
// pairs, or groups — in contiguous chunks. Every unit owns a disjoint
// output slab and its GEMMs keep their per-element chains, so the bits
// never depend on the worker count. With at least as many units as
// workers the chunks fan out and fanned is set: chunk then runs its GEMMs
// serially (convGEMM) on its own scratch and must reserve their pack
// panels. Otherwise one chunk runs on the caller and the parallelism
// moves inside the GEMMs, which split output rows or columns without
// touching the chains either.
func convUnits(units int, chunk func(lo, hi int, fanned bool)) {
	if Workers() > 1 && units >= Workers() {
		parallelForChunks(units, func(lo, hi int) { chunk(lo, hi, true) })
		return
	}
	chunk(0, units, false)
}

// convGEMM runs one unit's GEMM: serially with pack panels from sc when
// the units fan out, else split across the workers.
func convGEMM[In, AP, Out elem](g *gemmKernels[In, AP, Out], fanned bool, sc *scratch, op *gemmOp[In, AP, Out]) {
	if fanned {
		gemmSerial(g, op, sc)
		return
	}
	gemmParallel(g, *op)
}

// convStages is what a backend writes itself of a conv forward.
type convStages[In, Out elem] interface {
	// load returns unit (s, gi)'s [Cg, H, W] input slab in the GEMM's
	// operand type, converted into buf if it must be.
	load(buf []In, s, gi int) []In
	// result returns where the unit's [coutG, l] GEMM result goes: acc,
	// or the output itself.
	result(acc []Out, s, gi int) []Out
	// finish is the epilogue on that result.
	finish(res []Out, s, gi int)
}

// convJob is one conv forward on the lowering both backends share: the
// checked geometry, the backend's GEMM kernels, its weights [Cout,
// Cg·KH·KW] and im2col pad value in the GEMM's operand type, its stages,
// and the per-unit scratch its load and result stages use (the float32
// backend reads its input and writes its output in place and needs none;
// the int8 backend quantizes each slab and accumulates int32). panels,
// int8 only, are the weights packed once as A panels (PanelsI8) that
// every staging reads in place; float32 reads w in place. bias, float32
// only, is [Cout]: on the direct staging compaction adds it, on the
// others finish does. direct picks B's staging: the bordered plane
// (conv_direct.go), or the pointwise slab or im2col matrix; run sets it
// from convGeom.direct.
type convJob[In, AP, Out elem] struct {
	cv            *convGeom
	gemm          *gemmKernels[In, AP, Out]
	w             []In
	panels        []AP
	bias          []Out
	pad           In
	inLen, accLen int
	st            convStages[In, Out]
	direct        bool
}

// run is the one conv lowering: B's staging for the geometry, then the
// unit fan-out.
func (j *convJob[In, AP, Out]) run() {
	j.direct = j.cv.direct()
	convUnits(j.cv.n*j.cv.g, j.units)
}

// units runs units [lo, hi): per unit load → B staging → GEMM → finish.
// On the direct staging the plane's border is written once per chunk,
// every unit overwrites only its interior, and compaction moves the
// GEMM's virtual columns to the result.
func (j *convJob[In, AP, Out]) units(lo, hi int, fanned bool) {
	cv := j.cv
	op := gemmOp[In, AP, Out]{ldc: cv.l, lda: cv.kdim, panels: j.panels, ldb: cv.l, m: cv.coutG, k: cv.kdim, n: cv.l}
	stageLen, vresLen := cv.colLen(), 0
	var sc scratch
	if j.direct {
		op.n, op.ldc = cv.virtualCols(), cv.virtualCols()
		stageLen, vresLen = cv.planeLen(), cv.coutG*op.n
	}
	arenaOf[In](&sc).reserve(j.inLen + stageLen)
	arenaOf[Out](&sc).reserve(j.accLen + vresLen)
	if j.direct {
		// The GEMM takes no int32 scratch, so the tap offsets can be
		// taken before its reservation, which reads that B is in place.
		nk := roundUp(cv.kdim, j.gemm.kStep)
		arenaOf[int32](&sc).reserve(nk)
		op.offs = arenaOf[int32](&sc).take(nk)
		cv.tapOffsets(op.offs)
	}
	if fanned {
		gemmReserve(j.gemm, &sc, &op)
	}
	buf, stage := arenaOf[In](&sc).take(j.inLen), arenaOf[In](&sc).take(stageLen)
	acc, vres := arenaOf[Out](&sc).take(j.accLen), arenaOf[Out](&sc).take(vresLen)
	if j.direct {
		fillPlanePad(stage, j.pad)
	}
	for u := lo; u < hi; u++ {
		s, gi := u/cv.g, u%cv.g
		img := j.st.load(buf, s, gi)
		res := j.st.result(acc, s, gi)
		op.a = j.w[gi*cv.coutG*cv.kdim : (gi+1)*cv.coutG*cv.kdim]
		if j.panels != nil {
			n := len(j.panels) / cv.g
			op.panels = j.panels[gi*n : (gi+1)*n]
		}
		if j.direct {
			fillPlane(cv, stage, img)
			op.dst, op.b = vres, stage
		} else {
			op.dst, op.b = res, convCols(cv, stage, img, j.pad)
		}
		convGEMM(j.gemm, fanned, &sc, &op)
		if j.direct {
			var bias []Out
			if j.bias != nil {
				bias = j.bias[gi*cv.coutG : (gi+1)*cv.coutG]
			}
			compactCols(cv, res, vres, bias)
		}
		j.st.finish(res, s, gi)
	}
	sc.release()
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
func fillPad[T elem](dst []T, pad T) {
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
func im2colInto[T elem](col, img []T, c0, cg, h, wd, kh, kw, oh, ow int, spec ConvSpec, pad T) {
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
	cv := checkConvShapes(x, w.shape, spec)
	out := New(cv.n, cv.cout, cv.oh, cv.ow)
	conv2dInto(out, x, w, bias, &cv)
	return out
}

// Conv2dInto is Conv2d writing into a caller-provided dst of shape
// ConvOutShape(x, w, spec). It lets layers reuse an output buffer across
// forward passes instead of allocating one per call.
func Conv2dInto(dst, x, w, bias *Tensor, spec ConvSpec) {
	cv := checkConvShapes(x, w.shape, spec)
	cv.checkDst(dst, "Conv2dInto")
	conv2dInto(dst, x, w, bias, &cv)
}

// conv2dInto is the float32 forward.
func conv2dInto(out, x, w, bias *Tensor, cv *convGeom) {
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != cv.cout) {
		panic(fmt.Sprintf("tensor: Conv2d bias shape %v does not match Cout=%d", bias.shape, cv.cout))
	}
	newF32Conv(out, x, w, bias, cv).job.run()
}

// newF32Conv returns the float32 forward out = conv(x, w) + bias as a
// job on the shared lowering.
func newF32Conv(out, x, w, bias *Tensor, cv *convGeom) *f32Conv {
	f := &f32Conv{cv: *cv, x: x, out: out}
	f.job = convJob[float32, float32, float32]{cv: &f.cv, gemm: f32Kernels, w: w.data, st: f}
	if bias != nil {
		f.job.bias = bias.data
	}
	return f
}

// f32Conv is the float32 forward's stages: units read the input and
// write the output in place, and the epilogue adds the bias rows unless
// the direct staging's compaction did. It holds its job, so one
// allocation carries a call.
type f32Conv struct {
	job    convJob[float32, float32, float32]
	cv     convGeom
	x, out *Tensor
}

func (f *f32Conv) load(_ []float32, s, gi int) []float32 { return slab(&f.cv, f.x.data, s, gi) }

func (f *f32Conv) result(_ []float32, s, gi int) []float32 {
	cv := &f.cv
	return f.out.data[(s*cv.cout+gi*cv.coutG)*cv.l : (s*cv.cout+(gi+1)*cv.coutG)*cv.l]
}

func (f *f32Conv) finish(res []float32, _, gi int) {
	if f.job.bias == nil || f.job.direct {
		return
	}
	cv := &f.cv
	for ocg := 0; ocg < cv.coutG; ocg++ {
		bv := f.job.bias[gi*cv.coutG+ocg]
		row := res[ocg*cv.l : (ocg+1)*cv.l]
		for i := range row {
			row[i] += bv
		}
	}
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
	cv := checkConvShapes(x, w.shape, spec)
	n, c, h, wd := cv.n, cv.c, cv.h, cv.wd
	cout, g, coutG, l, kdim := cv.cout, cv.g, cv.coutG, cv.l, cv.kdim
	if want := []int{n, cout, cv.oh, cv.ow}; !sameShape(gradOut.shape, want) {
		panic(fmt.Sprintf("tensor: Conv2dBackward gradOut shape %v != expected %v", gradOut.shape, want))
	}

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
	colLen := cv.colLen()
	convUnits(g, func(lo, hi int, fanned bool) {
		var sc scratch
		defer sc.release()
		op := f32Op{ldc: kdim, lda: l, ldb: l, transB: true, m: coutG, k: l, n: kdim, acc: true}
		ar := arenaOf[float32](&sc)
		ar.reserve(colLen)
		if fanned {
			gemmReserve(f32Kernels, &sc, &op)
		}
		col := ar.take(colLen)
		for gi := lo; gi < hi; gi++ {
			op.dst = grads.Weight.data[gi*coutG*kdim : (gi+1)*coutG*kdim]
			for s := 0; s < n; s++ {
				op.a = gradOut.data[(s*cout+gi*coutG)*l : (s*cout+(gi+1)*coutG)*l]
				op.b = convCols(&cv, col, slab(&cv, x.data, s, gi), 0)
				convGEMM(f32Kernels, fanned, &sc, &op)
			}
		}
	})

	if !needInput {
		return grads
	}

	// dX pass: colGrad = W_gᵀ [kdim, coutG] × gOut_g [coutG, l], scattered
	// back by col2im. Units (s, gi) touch disjoint regions of grads.Input.
	// The GEMM overwrites colGrad, so the scratch needs no zeroing.
	grads.Input = New(x.shape...)
	convUnits(n*g, func(lo, hi int, fanned bool) {
		var sc scratch
		defer sc.release()
		op := f32Op{ldc: l, lda: kdim, transA: true, ldb: l, m: kdim, k: coutG, n: l}
		ar := arenaOf[float32](&sc)
		ar.reserve(kdim * l)
		if fanned {
			gemmReserve(f32Kernels, &sc, &op)
		}
		colGrad := ar.take(kdim * l)
		op.dst = colGrad
		for u := lo; u < hi; u++ {
			s, gi := u/g, u%g
			op.a = w.data[gi*coutG*kdim : (gi+1)*coutG*kdim]
			op.b = gradOut.data[(s*cout+gi*coutG)*l : (s*cout+(gi+1)*coutG)*l]
			convGEMM(f32Kernels, fanned, &sc, &op)
			imgGrad := grads.Input.data[s*c*h*wd : (s+1)*c*h*wd]
			col2imAccInto(imgGrad, colGrad, gi*cv.cg, cv.cg, h, wd, cv.kh, cv.kw, cv.oh, cv.ow, cv.spec)
		}
	})
	return grads
}
