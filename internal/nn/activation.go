package nn

import (
	"math"

	"gofi/internal/tensor"
)

// ReLU applies max(0, x) element-wise. Cap > 0 turns it into a clipped
// ReLU (ReLU6 with Cap=6), used by MobileNet-style architectures.
//
// Guided switches the backward pass to guided-backpropagation semantics
// (Springenberg et al.): gradients are additionally gated on being
// positive, producing the crisp input saliency maps Guided Grad-CAM
// builds on. It changes only Backward; training code must leave it false.
type ReLU struct {
	Base
	Cap    float32 // 0 means uncapped
	Guided bool

	lastInput *tensor.Tensor
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns an unbounded rectifier.
func NewReLU(name string) *ReLU { return &ReLU{Base: NewBase(name)} }

// NewReLU6 returns a rectifier clipped at 6.
func NewReLU6(name string) *ReLU { return &ReLU{Base: NewBase(name), Cap: 6} }

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// Forward implements Layer: tensor.ReLUInto, whose rule keeps −0, +0
// and NaN of either sign unchanged as `if v < 0 { v = 0 }` does, with the
// upper bound at Cap for a clipped rectifier and at +Inf otherwise.
func (l *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.lastInput = x
	out := l.output(x.Shape()...)
	tensor.ReLUInto(out.Data(), x.Data(), l.hi())
	return out
}

// hi is the rectifier's upper bound: Cap, or +Inf when uncapped.
func (l *ReLU) hi() float32 {
	if l.Cap > 0 {
		return l.Cap
	}
	return float32(math.Inf(1))
}

// Backward implements Layer.
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	in := l.lastInput.Data()
	g := out.Data()
	cap := l.Cap
	for i, v := range in {
		if v <= 0 || (cap > 0 && v > cap) {
			g[i] = 0
		} else if l.Guided && g[i] < 0 {
			g[i] = 0
		}
	}
	return out
}

// Softmax normalizes [N, classes] logits into probabilities row-wise.
// Classification models in this repo usually end at raw logits (the
// cross-entropy loss fuses softmax), but the layer is provided for models
// and tools that want explicit probabilities.
type Softmax struct {
	Base

	lastOutput *tensor.Tensor
}

var _ Layer = (*Softmax)(nil)

// NewSoftmax returns a row-wise softmax layer.
func NewSoftmax(name string) *Softmax { return &Softmax{Base: NewBase(name)} }

// Params implements Layer.
func (l *Softmax) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Softmax) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.SoftmaxRows(x)
	l.lastOutput = out
	return out
}

// Backward implements Layer. For y = softmax(x):
// dL/dx_i = y_i * (dL/dy_i - Σ_j dL/dy_j · y_j).
func (l *Softmax) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c := grad.Dim(0), grad.Dim(1)
	out := tensor.New(n, c)
	y := l.lastOutput.Data()
	g := grad.Data()
	o := out.Data()
	for r := 0; r < n; r++ {
		var dot float32
		for j := 0; j < c; j++ {
			dot += g[r*c+j] * y[r*c+j]
		}
		for i := 0; i < c; i++ {
			o[r*c+i] = y[r*c+i] * (g[r*c+i] - dot)
		}
	}
	return out
}

// Sigmoid applies 1/(1+e^-x) element-wise.
type Sigmoid struct {
	Base

	lastOutput *tensor.Tensor
}

var _ Layer = (*Sigmoid)(nil)

// NewSigmoid returns a sigmoid layer.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{Base: NewBase(name)} }

// Params implements Layer.
func (l *Sigmoid) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Sigmoid) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.Apply(x, func(v float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(v))))
	})
	l.lastOutput = out
	return out
}

// Backward implements Layer: dσ/dx = σ(1−σ).
func (l *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	y := l.lastOutput.Data()
	g := out.Data()
	for i := range g {
		g[i] *= y[i] * (1 - y[i])
	}
	return out
}

// Tanh applies the hyperbolic tangent element-wise.
type Tanh struct {
	Base

	lastOutput *tensor.Tensor
}

var _ Layer = (*Tanh)(nil)

// NewTanh returns a tanh layer.
func NewTanh(name string) *Tanh { return &Tanh{Base: NewBase(name)} }

// Params implements Layer.
func (l *Tanh) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Tanh) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.Apply(x, func(v float32) float32 {
		return float32(math.Tanh(float64(v)))
	})
	l.lastOutput = out
	return out
}

// Backward implements Layer: d tanh/dx = 1 − tanh².
func (l *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	y := l.lastOutput.Data()
	g := out.Data()
	for i := range g {
		g[i] *= 1 - y[i]*y[i]
	}
	return out
}
