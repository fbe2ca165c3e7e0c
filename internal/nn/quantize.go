package nn

import (
	"fmt"

	"gofi/internal/quant"
	"gofi/internal/tensor"
)

// Quantized inference support: QuantizeModel converts a trained float32
// model into an int8 execution plan, attaching a QuantState to every
// Conv2d and Linear layer. A layer with a QuantState dispatches its
// forward pass to the int8 backend (tensor.Conv2dInt8Into /
// tensor.LinearInt8Into) and requantizes its output onto the calibrated
// activation grid, so forward hooks — and therefore the fault injector —
// observe exactly the values an int8 accelerator would hold.
//
// The float32 master weights are left untouched: QuantState carries its
// own code array, which is what quantized weight-fault campaigns mutate
// — through SetCode, which keeps the derived row sums and panels in step.

// QuantState is the per-layer int8 execution plan produced by
// QuantizeModel.
type QuantState struct {
	// WCodes are the int8 weight codes, same element order as the
	// layer's float32 weight tensor. real = WScales[oc]·code, where oc
	// indexes the leading (output-channel) dimension.
	WCodes []int8
	// WScales are the per-output-channel symmetric weight scales.
	WScales []quant.Scale
	// RowSums[oc] is the sum of output channel oc's weight codes,
	// maintained in lockstep with WCodes (the zero-point correction term
	// in the dequantization fold depends on it).
	RowSums []int32
	// Panels are WCodes packed once as the A operand of every int8 GEMM
	// the layer runs, also in lockstep with WCodes.
	Panels *tensor.PanelsI8
	// In is the affine quantizer for the layer's input activations.
	In quant.Affine
	// Out is the symmetric grid the layer's float32 output is snapped
	// onto after dequantization, defining the layer's activation codes.
	Out quant.Scale

	wsFloat []float32 // WScales as float32, in tensor.QuantParams form
}

// params assembles the tensor-level QuantParams for a forward pass. The
// int8 kernels' epilogue snaps the output onto qs.Out's grid, so
// downstream layers and hooks see the values an int8 device would hold.
func (qs *QuantState) params(bias []float32) tensor.QuantParams {
	return tensor.QuantParams{
		InScale:  float32(qs.In.S),
		InZP:     qs.In.ZP,
		WScales:  qs.wsFloat,
		RowSums:  qs.RowSums,
		Bias:     bias,
		OutScale: float32(qs.Out),
		Panels:   qs.Panels,
	}
}

// SetCode sets weight code offset (an index into WCodes) to code and
// updates its channel's row sum and its panel element with it: the one
// writer of a quantized layer's weights after QuantizeModel.
func (qs *QuantState) SetCode(offset int, code int8) {
	oc := offset / (len(qs.WCodes) / len(qs.WScales))
	qs.RowSums[oc] += int32(code) - int32(qs.WCodes[offset])
	qs.WCodes[offset] = code
	qs.Panels.Set(offset, code)
}

// QuantizeOptions controls calibration policy.
type QuantizeOptions struct {
	// ActZeroPoint enables an asymmetric (zero-point) input quantizer
	// for layers whose calibration inputs are non-negative (post-ReLU),
	// doubling their effective resolution. Symmetric otherwise.
	ActZeroPoint bool
}

// quantTargets collects the quantizable layers (Conv2d, Linear) in walk
// order with their paths; groups is a Conv2d's group count, 1 on a
// Linear.
type quantTarget struct {
	path   string
	base   *Base
	weight *tensor.Tensor
	bias   *Param
	groups int
	attach func(*QuantState)
	get    func() *QuantState
}

func quantTargets(root Layer) []*quantTarget {
	var ts []*quantTarget
	Walk(root, func(path string, l Layer) {
		switch v := l.(type) {
		case *Conv2d:
			ts = append(ts, &quantTarget{
				path: path, base: &v.Base, weight: v.weight.Data, bias: v.bias, groups: v.Spec.Canon().Groups,
				attach: func(qs *QuantState) { v.qstate = qs },
				get:    func() *QuantState { return v.qstate },
			})
		case *Linear:
			ts = append(ts, &quantTarget{
				path: path, base: &v.Base, weight: v.weight.Data, bias: v.bias, groups: 1,
				attach: func(qs *QuantState) { v.qstate = qs },
				get:    func() *QuantState { return v.qstate },
			})
		}
	})
	return ts
}

// QuantizeModel calibrates and quantizes every Conv2d and Linear layer
// in root. One float32 forward pass over calib records each layer's
// input and output activation ranges; weights get per-channel symmetric
// scales. The model must be deterministic in eval mode — QuantizeModel
// switches it there. Calibration failures (non-finite activations or
// weights, layers the calibration batch never exercises) are reported as
// errors rather than producing a silently broken plan.
func QuantizeModel(root Layer, calib *tensor.Tensor, opts QuantizeOptions) error {
	targets := quantTargets(root)
	if len(targets) == 0 {
		return fmt.Errorf("nn: QuantizeModel found no quantizable layers")
	}
	SetTraining(root, false)

	// Calibration pass: temporary hooks observe each target's float32
	// input and output during one forward run.
	type actStats struct {
		in   quant.Affine
		out  quant.Scale
		err  error
		seen bool
	}
	stats := make([]actStats, len(targets))
	handles := make([]HookHandle, 0, len(targets))
	for i, tg := range targets {
		i := i
		handles = append(handles, tg.base.RegisterForwardHook(func(_ Layer, in, out *tensor.Tensor) {
			st := &stats[i]
			if st.seen || st.err != nil {
				return
			}
			st.seen = true
			aff, err := quant.CalibrateAffine(in, opts.ActZeroPoint)
			if err != nil {
				st.err = err
				return
			}
			sc, err := quant.CalibrateAbsMax(out)
			if err != nil {
				st.err = err
				return
			}
			st.in, st.out = aff, sc
		}))
	}
	Run(root, calib)
	for _, h := range handles {
		h.Remove()
	}
	for i, tg := range targets {
		if stats[i].err != nil {
			return fmt.Errorf("nn: QuantizeModel calibrating %q: %w", tg.path, stats[i].err)
		}
		if !stats[i].seen {
			return fmt.Errorf("nn: QuantizeModel: layer %q not exercised by calibration batch", tg.path)
		}
	}

	// Weight quantization: per-output-channel symmetric scales.
	for i, tg := range targets {
		ws, err := quant.CalibratePerChannel(tg.weight)
		if err != nil {
			return fmt.Errorf("nn: QuantizeModel weights of %q: %w", tg.path, err)
		}
		data := tg.weight.Data()
		per := len(data) / len(ws)
		qs := &QuantState{
			WCodes:  make([]int8, len(data)),
			WScales: ws,
			RowSums: make([]int32, len(ws)),
			In:      stats[i].in,
			Out:     stats[i].out,
			wsFloat: make([]float32, len(ws)),
		}
		for oc, s := range ws {
			qs.wsFloat[oc] = float32(s)
			var sum int32
			for j := oc * per; j < (oc+1)*per; j++ {
				c := s.Quantize(data[j])
				qs.WCodes[j] = c
				sum += int32(c)
			}
			qs.RowSums[oc] = sum
		}
		qs.Panels = tensor.PackPanelsI8(qs.WCodes, len(ws), tg.groups)
		tg.attach(qs)
	}
	return nil
}

// DequantizeModel detaches every QuantState, returning the model to pure
// float32 execution.
func DequantizeModel(root Layer) {
	for _, tg := range quantTargets(root) {
		tg.attach(nil)
	}
}

// ShareQuant points dst's layers at src's QuantStates (pointer sharing,
// the quantized analogue of ShareParams). Worker replicas running
// neuron-fault campaigns share one plan; weight-fault campaigns that
// mutate codes need per-replica plans instead (re-run QuantizeModel
// after CopyParams — quantization is deterministic given weights and
// calibration batch). Architectures must match.
func ShareQuant(dst, src Layer) error {
	d, s := quantTargets(dst), quantTargets(src)
	if len(d) != len(s) {
		return fmt.Errorf("nn: ShareQuant layer count mismatch: dst %d vs src %d", len(d), len(s))
	}
	for i := range d {
		qs := s[i].get()
		if qs == nil {
			return fmt.Errorf("nn: ShareQuant: source layer %q has no QuantState (run QuantizeModel first)", s[i].path)
		}
		if !d[i].weight.SameShape(s[i].weight) {
			return fmt.Errorf("nn: ShareQuant shape mismatch at %q: %v vs %v", d[i].path, d[i].weight.Shape(), s[i].weight.Shape())
		}
		d[i].attach(qs)
	}
	return nil
}

// IsQuantized reports whether every quantizable layer in root carries a
// QuantState (and that there is at least one).
func IsQuantized(root Layer) bool {
	ts := quantTargets(root)
	if len(ts) == 0 {
		return false
	}
	for _, tg := range ts {
		if tg.get() == nil {
			return false
		}
	}
	return true
}
