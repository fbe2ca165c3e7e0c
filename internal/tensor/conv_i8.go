package tensor

import "fmt"

// Quantized (int8) layer drivers for the quantized inference backend.
// The layer's float32 input is quantized to int8 codes (affine: code =
// round(v/scale) + zp, so zp is the code of real 0.0), the convolution
// or matmul runs on the int8 GEMM backend with int32 accumulation, A the
// layer's weight panels (PanelsI8) and B the input codes, and the
// accumulators are folded back to float32 as
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
	// Panels are the layer's weight codes packed once (PackPanelsI8),
	// the A every GEMM of the layer reads in place. A call handed none
	// packs them itself.
	Panels *PanelsI8
}

// PanelsI8 is an int8 layer's weight codes packed once, at quantization,
// as the A panels its GEMMs read in place (gemmOp.panels): per group,
// packAI8's layout over all of kdim, rows padded to whole panels. The
// block of rows ic… and k-chunk pc… of any GEMM over a group therefore
// sits at ic·roundUp(kdim, 2) + pc·gemmMR of the group's panels, whatever
// gemmKC, gemmMC or the worker split. Set keeps it in step with the codes
// it was packed from.
type PanelsI8 struct {
	data        []int16
	coutG, kdim int
}

// PackPanelsI8 packs the weight codes wq [Cout, kdim] of a layer with
// cout output channels (units, on a linear layer) in groups groups.
func PackPanelsI8(wq []int8, cout, groups int) *PanelsI8 {
	if cout <= 0 || groups <= 0 || cout%groups != 0 || len(wq)%cout != 0 {
		panic(fmt.Sprintf("tensor: PackPanelsI8 of %d codes, %d channels in %d groups", len(wq), cout, groups))
	}
	p := &PanelsI8{coutG: cout / groups, kdim: len(wq) / cout}
	p.data = make([]int16, groups*p.groupLen())
	for gi := 0; gi < groups; gi++ {
		packAI8(p.data[gi*p.groupLen():], wq[gi*p.coutG*p.kdim:(gi+1)*p.coutG*p.kdim], p.coutG, p.kdim)
	}
	return p
}

// groupLen is one group's panel length.
func (p *PanelsI8) groupLen() int { return roundUp(p.coutG, gemmMR) * roundUp(p.kdim, 2) }

// Set rewrites the panel element of weight code off (an index into the
// packed codes) to code.
func (p *PanelsI8) Set(off int, code int8) {
	oc, k := off/p.kdim, off%p.kdim
	gi, r := oc/p.coutG, oc%p.coutG
	p.data[gi*p.groupLen()+(r/gemmMR)*gemmMR*roundUp(p.kdim, 2)+(k/2)*2*gemmMR+2*(r%gemmMR)+k%2] = int16(code)
}

// check validates qp against a layer of cout output channels whose
// weight codes wq are groups groups of [cout/groups, kdim], on the
// caller's goroutine: a short slice would otherwise panic in a pool
// worker, where no trial recovery reaches. A qp handed no panels gets
// them packed here, per call.
func (qp *QuantParams) check(op string, wq []int8, cout, kdim, groups int) {
	if len(qp.WScales) != cout || len(qp.RowSums) != cout {
		panic(fmt.Sprintf("tensor: %s needs %d per-channel scales and row sums, got %d/%d", op, cout, len(qp.WScales), len(qp.RowSums)))
	}
	if qp.Bias != nil && len(qp.Bias) != cout {
		panic(fmt.Sprintf("tensor: %s bias length %d does not match Cout=%d", op, len(qp.Bias), cout))
	}
	if p := qp.Panels; p == nil {
		qp.Panels = PackPanelsI8(wq, cout, groups)
	} else if p.coutG != cout/groups || p.kdim != kdim || len(p.data) != groups*p.groupLen() {
		panic(fmt.Sprintf("tensor: %s panels of %d×%d per group do not fit %d×%d codes in %d groups", op, p.coutG, p.kdim, cout, kdim, groups))
	}
}

// fold returns output channel oc's requant constants: the zero-point
// correction zp·rowSum[oc], the dequant scale and the bias.
func (qp *QuantParams) fold(oc int) (corr int32, scale, bias float32) {
	if qp.Bias != nil {
		bias = qp.Bias[oc]
	}
	return int32(qp.InZP) * qp.RowSums[oc], qp.InScale * qp.WScales[oc], bias
}

// Conv2dInt8Into computes a 2-D convolution of x [N,C,H,W] against int8
// weight codes wq with shape wShape [Cout,C/groups,KH,KW], writing the
// dequantized float32 result into dst, on the conv lowering the float32
// backend runs (convJob) with the int8 GEMM and i8Conv's stages.
func Conv2dInt8Into(dst, x *Tensor, wq []int8, wShape []int, qp QuantParams, spec ConvSpec) {
	cv := checkConvShapes(x, wShape, spec)
	if len(wq) != cv.cout*cv.kdim {
		panic(fmt.Sprintf("tensor: Conv2dInt8 weight codes %d != shape %v", len(wq), wShape))
	}
	qp.check("Conv2dInt8", wq, cv.cout, cv.kdim, cv.g)
	cv.checkDst(dst, "Conv2dInt8Into")
	newI8Conv(dst, x, wq, qp, &cv).job.run()
}

// newI8Conv returns the int8 forward of dst = conv(x, wq) under qp, which
// carries the panels, as a job on the shared lowering.
func newI8Conv(dst, x *Tensor, wq []int8, qp QuantParams, cv *convGeom) *i8Conv {
	c := &i8Conv{cv: *cv, x: x, dst: dst, qp: qp}
	c.job = convJob[int8, int16, int32]{cv: &c.cv, gemm: i8Kernels, w: wq, panels: qp.Panels.data, pad: qp.InZP,
		inLen: cv.cg * cv.h * cv.wd, accLen: cv.coutG * cv.l, st: c}
	return c
}

// i8Conv is the int8 forward's stages: each unit quantizes its input
// slab, accumulates int32, and the requant epilogue writes dst. Like
// f32Conv it holds its job.
type i8Conv struct {
	job    convJob[int8, int16, int32]
	cv     convGeom
	x, dst *Tensor
	qp     QuantParams
}

func (c *i8Conv) load(buf []int8, s, gi int) []int8 {
	QuantizeI8Into(buf, slab(&c.cv, c.x.data, s, gi), c.qp.InScale, c.qp.InZP)
	return buf
}

func (c *i8Conv) result(acc []int32, _, _ int) []int32 { return acc }

func (c *i8Conv) finish(acc []int32, s, gi int) {
	cv, l := &c.cv, c.cv.l
	for ocg := 0; ocg < cv.coutG; ocg++ {
		oc := gi*cv.coutG + ocg
		corr, scale, bias := c.qp.fold(oc)
		requantRow(c.dst.data[(s*cv.cout+oc)*l:(s*cv.cout+oc+1)*l], acc[ocg*l:(ocg+1)*l], corr, scale, bias, c.qp.OutScale)
	}
}

// LinearInt8Into computes dst = dequant(quant(x) × Wqᵀ) for x [N, in]
// and weight codes wq [out, in] (row-major), the int8 analogue of
// MatMulTransB plus the bias fold and, with qp.OutScale set, the snap.
// Like every int8 GEMM it multiplies weights by activations: accᵀ =
// Wq·xqᵀ, A the weight panels and B the quantized input read transposed.
func LinearInt8Into(dst, x *Tensor, wq []int8, qp QuantParams) {
	if x.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: LinearInt8 requires rank-2 tensors, got %v -> %v", x.shape, dst.shape))
	}
	rows, in := x.shape[0], x.shape[1]
	out := dst.shape[1]
	if dst.shape[0] != rows || len(wq) != out*in {
		panic(fmt.Sprintf("tensor: LinearInt8 shapes x=%v dst=%v wq=%d", x.shape, dst.shape, len(wq)))
	}
	qp.check("LinearInt8", wq, out, in, 1)
	var sc scratch
	xq := arenaOf[int8](&sc).take(rows * in)
	acc := arenaOf[int32](&sc).take(out * rows)
	QuantizeI8Into(xq, x.data, qp.InScale, qp.InZP)
	gemmParallel(i8Kernels, i8Op{dst: acc, ldc: rows, a: wq, lda: in, panels: qp.Panels.data, b: xq, ldb: in, transB: true, m: out, k: in, n: rows})
	for oc := 0; oc < out; oc++ {
		corr, scale, bias := qp.fold(oc)
		for i, av := range acc[oc*rows : (oc+1)*rows] {
			dst.data[i*out+oc] = requantI8(av, corr, scale, bias, qp.OutScale)
		}
	}
	sc.release()
}
