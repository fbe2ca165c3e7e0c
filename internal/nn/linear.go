package nn

import (
	"fmt"
	"math/rand"

	"gofi/internal/tensor"
)

// Linear is a fully-connected layer computing y = xWᵀ + b over [N, in]
// inputs.
type Linear struct {
	Base
	In, Out int

	weight *Param // [out, in]
	bias   *Param // [out], nil when bias-free

	// qstate, when non-nil, routes Forward through the int8 backend
	// (see QuantizeModel). Inference-only; Backward ignores it.
	qstate *QuantState

	lastInput *tensor.Tensor
}

var _ Layer = (*Linear)(nil)

// NewLinear constructs a named fully-connected layer with He-initialized
// weights.
func NewLinear(name string, rng *rand.Rand, in, out int, withBias bool) *Linear {
	l := &Linear{
		Base: NewBase(name),
		In:   in,
		Out:  out,
		weight: &Param{
			Name: name + ".weight",
			Data: tensor.HeInit(rng, in, out, in),
			Grad: tensor.New(out, in),
		},
	}
	if withBias {
		l.bias = &Param{Name: name + ".bias", Data: tensor.New(out), Grad: tensor.New(out)}
	}
	return l
}

// Weight returns the weight parameter ([out, in]).
func (l *Linear) Weight() *Param { return l.weight }

// Bias returns the bias parameter, or nil for a bias-free layer.
func (l *Linear) Bias() *Param { return l.bias }

// Params implements Layer.
func (l *Linear) Params() []*Param {
	if l.bias == nil {
		return []*Param{l.weight}
	}
	return []*Param{l.weight, l.bias}
}

// Quant returns the layer's int8 execution plan, or nil when the layer
// runs in float32.
func (l *Linear) Quant() *QuantState { return l.qstate }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear %q expects [N,%d], got %v", l.Name(), l.In, x.Shape()))
	}
	l.lastInput = x
	n := x.Dim(0)
	out := l.output(n, l.Out)
	if qs := l.qstate; qs != nil {
		var bias []float32
		if l.bias != nil {
			bias = l.bias.Data.Data()
		}
		tensor.LinearInt8Into(out, x, qs.WCodes, qs.params(bias))
		return out
	}
	// out = x [n,in] × Wᵀ [in,out] with W stored [out,in]; the GEMM
	// overwrites out, so a stale reused buffer is fine.
	tensor.MatMulTransB(out, x, l.weight.Data)
	if l.bias != nil {
		for r := 0; r < n; r++ {
			row := out.Data()[r*l.Out : (r+1)*l.Out]
			for i, b := range l.bias.Data.Data() {
				row[i] += b
			}
		}
	}
	return out
}

// Backward implements Layer.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Dim(0)
	// dW[o,i] += sum_n grad[n,o] * x[n,i]
	tensor.MatMulTransAAcc(l.weight.Grad, grad, l.lastInput)
	if l.bias != nil {
		gb := l.bias.Grad.Data()
		for r := 0; r < n; r++ {
			row := grad.Data()[r*l.Out : (r+1)*l.Out]
			for i, g := range row {
				gb[i] += g
			}
		}
	}
	// dx = grad [n,out] × W [out,in]
	gx := tensor.New(n, l.In)
	tensor.MatMulAcc(gx, grad, l.weight.Data)
	return gx
}
