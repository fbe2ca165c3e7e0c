package tensor

import "fmt"

// Quantized (int8) layer drivers for the quantized inference backend.
// The layer's float32 input is quantized to int8 codes (affine: code =
// round(v/scale) + zp, so zp is the code of real 0.0), the convolution
// or matmul runs on the int8 GEMM backend with int32 accumulation, and
// the accumulators are folded back to float32 as
//
//	out = inScale·wScale[oc]·(acc − zp·rowSum[oc]) + bias[oc]
//
// where rowSum[oc] is the precomputed sum of output channel oc's weight
// codes: with affine input codes q = q' + zp the zp·rowSum term removes
// the zero-point's contribution exactly (integer arithmetic, no
// rounding). With QuantParams.OutScale set, the same epilogue snaps each
// output onto the layer's symmetric activation grid (SnapI8's rule), so
// a layer's output leaves Conv2dInt8Into/LinearInt8Into as the values an
// int8 device would hold, with no second pass over it.
//
// Determinism: quantization is elementwise, the int32 accumulation is
// exact under any blocking or worker split, and the fold and snap are
// elementwise float32 — so results are bit-identical across worker
// counts and schedules, the same contract as the float32 backend.

// QuantParams carries the calibrated quantization metadata one int8
// layer forward needs. Scales are plain float32 here — the tensor
// package stays below internal/quant in the dependency order; nn
// converts from quant.Scale.
type QuantParams struct {
	InScale float32 // input activation scale
	InZP    int8    // input zero-point code (0 for symmetric)
	WScales []float32
	RowSums []int32
	Bias    []float32 // optional, float32 domain
	// OutScale > 0 snaps every output onto the symmetric int8 grid of
	// that scale inside the epilogue; zero leaves the fold unsnapped.
	OutScale float32
}

// Conv2dInt8Into computes a 2-D convolution of x [N,C,H,W] against int8
// weight codes wq with shape wShape [Cout,C/groups,KH,KW], writing the
// dequantized float32 result into dst. Parallelization mirrors the
// float32 conv: disjoint (sample, group) units fan out across workers;
// a single small unit instead parallelizes columns inside the GEMM.
func Conv2dInt8Into(dst, x *Tensor, wq []int8, wShape []int, qp QuantParams, spec ConvSpec) {
	spec = spec.Canon()
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2dInt8 input must be [N,C,H,W], got %v", x.shape))
	}
	if len(wShape) != 4 {
		panic(fmt.Sprintf("tensor: Conv2dInt8 weight shape must be rank 4, got %v", wShape))
	}
	n, c, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, cg, kh, kw := wShape[0], wShape[1], wShape[2], wShape[3]
	if len(wq) != cout*cg*kh*kw {
		panic(fmt.Sprintf("tensor: Conv2dInt8 weight codes %d != shape %v", len(wq), wShape))
	}
	if len(qp.WScales) != cout || len(qp.RowSums) != cout {
		panic(fmt.Sprintf("tensor: Conv2dInt8 needs %d per-channel scales and row sums, got %d/%d", cout, len(qp.WScales), len(qp.RowSums)))
	}
	g := spec.Groups
	if c%g != 0 || cout%g != 0 || cg != c/g {
		panic(fmt.Sprintf("tensor: Conv2dInt8 channels C=%d Cout=%d groups=%d Cg=%d inconsistent", c, cout, g, cg))
	}
	oh := convOutSize(h, kh, spec.StrideH, spec.PadH)
	ow := convOutSize(wd, kw, spec.StrideW, spec.PadW)
	want := []int{n, cout, oh, ow}
	if !sameShape(dst.shape, want) {
		panic(fmt.Sprintf("tensor: Conv2dInt8Into dst shape %v != expected %v", dst.shape, want))
	}
	coutG := cout / g
	l := oh * ow
	kdim := cg * kh * kw

	// A pointwise conv reads the group's quantized channel slab in place
	// (see ConvSpec.pointwise); the whole im2col pass and its col scratch
	// disappear.
	pointwise := spec.pointwise(kh, kw)
	colLen := kdim * l
	if pointwise {
		colLen = 0
	}

	// Quantize the whole input once; units only read their slab. The
	// extra colLen + B-pack bound covers the serial path's column buffer
	// and the GEMM's B panels so nested takes never reallocate.
	ixa := getIArena()
	ixa.reserve8(len(x.data) + colLen + gemmI8PackBoundB(kdim, l))
	xq := ixa.take8(len(x.data))
	QuantizeI8Into(xq, x.data, qp.InScale, qp.InZP)

	unit := func(u int, col []int8, acc []int32, ia *iarena) {
		s, gi := u/g, u%g
		img := xq[s*c*h*wd : (s+1)*c*h*wd]
		if pointwise {
			col = img[gi*cg*h*wd : (gi+1)*cg*h*wd]
		} else {
			im2colInto(col, img, gi*cg, cg, h, wd, kh, kw, oh, ow, spec, qp.InZP)
		}
		wg := wq[gi*coutG*kdim : (gi+1)*coutG*kdim]
		if ia != nil {
			gemmI8Serial(acc, l, wg, kdim, col, l, false, coutG, kdim, l, ia)
		} else {
			gemmI8Parallel(acc, l, wg, kdim, col, l, false, coutG, kdim, l)
		}
		outImg := dst.data[s*cout*l : (s+1)*cout*l]
		for ocg := 0; ocg < coutG; ocg++ {
			oc := gi*coutG + ocg
			scale := qp.InScale * qp.WScales[oc]
			corr := int32(qp.InZP) * qp.RowSums[oc]
			var bv float32
			if qp.Bias != nil {
				bv = qp.Bias[oc]
			}
			requantRow(outImg[oc*l:(oc+1)*l], acc[ocg*l:(ocg+1)*l], corr, scale, bv, qp.OutScale)
		}
	}

	units := n * g
	if Workers() > 1 && units >= Workers() {
		parallelForChunks(units, func(lo, hi int) {
			ia := getIArena()
			ia.reserve8(colLen + gemmI8PackBoundB(kdim, l))
			ia.reserve32(coutG * l)
			ia.reserve16(gemmI8PackBoundA(coutG, kdim))
			col := ia.take8(colLen)
			acc := ia.take32(coutG * l)
			for u := lo; u < hi; u++ {
				unit(u, col, acc, ia)
			}
			ia.release()
		})
		ixa.release()
		return
	}
	ixa.reserve32(coutG * l)
	col := ixa.take8(colLen)
	acc := ixa.take32(coutG * l)
	for u := 0; u < units; u++ {
		unit(u, col, acc, nil)
	}
	ixa.release()
}

// LinearInt8Into computes dst = dequant(quant(x) × Wqᵀ) for x [N, in]
// and weight codes wq [out, in] (row-major), the int8 analogue of
// MatMulTransB plus the bias fold and, with qp.OutScale set, the snap.
func LinearInt8Into(dst, x *Tensor, wq []int8, qp QuantParams) {
	if x.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: LinearInt8 requires rank-2 tensors, got %v -> %v", x.shape, dst.shape))
	}
	rows, in := x.shape[0], x.shape[1]
	out := dst.shape[1]
	if dst.shape[0] != rows || len(wq) != out*in {
		panic(fmt.Sprintf("tensor: LinearInt8 shapes x=%v dst=%v wq=%d", x.shape, dst.shape, len(wq)))
	}
	if len(qp.WScales) != out || len(qp.RowSums) != out {
		panic(fmt.Sprintf("tensor: LinearInt8 needs %d per-unit scales and row sums, got %d/%d", out, len(qp.WScales), len(qp.RowSums)))
	}
	ia := getIArena()
	ia.reserve8(rows * in)
	ia.reserve32(rows * out)
	xq := ia.take8(rows * in)
	acc := ia.take32(rows * out)
	QuantizeI8Into(xq, x.data, qp.InScale, qp.InZP)
	gemmI8Parallel(acc, out, xq, in, wq, in, true, rows, in, out)
	for i := 0; i < rows; i++ {
		arow := acc[i*out : (i+1)*out]
		orow := dst.data[i*out : (i+1)*out]
		for oc, av := range arow {
			scale := qp.InScale * qp.WScales[oc]
			corr := int32(qp.InZP) * qp.RowSums[oc]
			var bv float32
			if qp.Bias != nil {
				bv = qp.Bias[oc]
			}
			orow[oc] = requantI8(av, corr, scale, bv, qp.OutScale)
		}
	}
	ia.release()
}
