package nn

import (
	"math/rand"

	"gofi/internal/tensor"
)

// Conv2d is a 2-D convolution layer over [N,C,H,W] tensors, supporting
// stride, zero padding and grouped/depthwise convolution. It is the layer
// class GoFI instruments by default, matching PyTorchFI's focus on
// convolutional operations.
type Conv2d struct {
	Base
	InChannels, OutChannels int
	KernelH, KernelW        int
	Spec                    tensor.ConvSpec

	weight *Param
	bias   *Param // nil when constructed without bias

	// qstate, when non-nil, routes Forward through the int8 backend
	// (see QuantizeModel). Inference-only; Backward ignores it.
	qstate *QuantState

	// Backward cache.
	lastInput *tensor.Tensor
}

var _ Layer = (*Conv2d)(nil)

// Conv2dConfig collects the optional geometry of a convolution.
type Conv2dConfig struct {
	Stride int // both dims; default 1
	Pad    int // both dims; default 0
	Groups int // default 1
	NoBias bool
}

// NewConv2d constructs a named convolution layer with He-initialized
// weights.
func NewConv2d(name string, rng *rand.Rand, in, out, kernel int, cfg Conv2dConfig) *Conv2d {
	spec := tensor.ConvSpec{
		StrideH: cfg.Stride, StrideW: cfg.Stride,
		PadH: cfg.Pad, PadW: cfg.Pad,
		Groups: cfg.Groups,
	}.Canon()
	fanIn := (in / spec.Groups) * kernel * kernel
	l := &Conv2d{
		Base:        NewBase(name),
		InChannels:  in,
		OutChannels: out,
		KernelH:     kernel,
		KernelW:     kernel,
		Spec:        spec,
		weight: &Param{
			Name: name + ".weight",
			Data: tensor.HeInit(rng, fanIn, out, in/spec.Groups, kernel, kernel),
			Grad: tensor.New(out, in/spec.Groups, kernel, kernel),
		},
	}
	if !cfg.NoBias {
		l.bias = &Param{
			Name: name + ".bias",
			Data: tensor.New(out),
			Grad: tensor.New(out),
		}
	}
	return l
}

// Weight returns the weight parameter ([Cout, Cin/groups, KH, KW]).
func (l *Conv2d) Weight() *Param { return l.weight }

// Bias returns the bias parameter, or nil for a bias-free layer.
func (l *Conv2d) Bias() *Param { return l.bias }

// Params implements Layer.
func (l *Conv2d) Params() []*Param {
	if l.bias == nil {
		return []*Param{l.weight}
	}
	return []*Param{l.weight, l.bias}
}

// Quant returns the layer's int8 execution plan, or nil when the layer
// runs in float32.
func (l *Conv2d) Quant() *QuantState { return l.qstate }

// Forward implements Layer.
func (l *Conv2d) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.lastInput = x
	out := l.output(l.OutShape(x.Shape())...)
	l.forwardInto(out, x, l.Spec)
	return out
}

// forwardInto runs the layer's kernel, int8 or float32, on x under spec
// into out.
func (l *Conv2d) forwardInto(out, x *tensor.Tensor, spec tensor.ConvSpec) {
	if qs := l.qstate; qs != nil {
		var bias []float32
		if l.bias != nil {
			bias = l.bias.Data.Data()
		}
		tensor.Conv2dInt8Into(out, x, qs.WCodes, l.weight.Data.Shape(), qs.params(bias), spec)
		return
	}
	var b *tensor.Tensor
	if l.bias != nil {
		b = l.bias.Data
	}
	tensor.Conv2dInto(out, x, l.weight.Data, b, spec)
}

// Backward implements Layer.
func (l *Conv2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := tensor.Conv2dBackward(l.lastInput, l.weight.Data, l.bias != nil, grad, l.Spec, true)
	tensor.AddInPlace(l.weight.Grad, g.Weight)
	if l.bias != nil {
		tensor.AddInPlace(l.bias.Grad, g.Bias)
	}
	return g.Input
}

// OutShape returns the output shape for a given input shape.
func (l *Conv2d) OutShape(inShape []int) []int {
	return tensor.ConvOutShape(inShape, l.weight.Data.Shape(), l.Spec)
}
