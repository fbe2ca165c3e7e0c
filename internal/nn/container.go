package nn

import (
	"fmt"

	"gofi/internal/tensor"
)

// Sequential chains layers; the output of each is the input of the next.
type Sequential struct {
	Base
	layers []Layer
}

var _ Container = (*Sequential)(nil)

// NewSequential returns a named chain of layers.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{Base: NewBase(name), layers: layers}
}

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.layers = append(s.layers, layers...) }

// Children implements Container.
func (s *Sequential) Children() []Layer { return s.layers }

// Params implements Layer (children report their own parameters via Walk).
func (s *Sequential) Params() []*Param { return nil }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.layers {
		x = Run(l, x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad = RunBackward(s.layers[i], grad)
	}
	return grad
}

// Residual computes body(x) + shortcut(x), the ResNet building block. Use
// an Identity shortcut for same-shape blocks or a projection (1×1 conv)
// for downsampling blocks. PostAct, when non-nil, is applied to the sum
// (the classic post-activation ResNet places ReLU there; pre-activation
// variants leave it nil).
type Residual struct {
	Base
	BodyLayer     Layer
	ShortcutLayer Layer
	PostAct       Layer
}

var _ Container = (*Residual)(nil)

// NewResidual returns a residual block. A nil shortcut means identity.
func NewResidual(name string, body, shortcut, postAct Layer) *Residual {
	if shortcut == nil {
		shortcut = NewIdentity(name + ".shortcut")
	}
	return &Residual{Base: NewBase(name), BodyLayer: body, ShortcutLayer: shortcut, PostAct: postAct}
}

// Children implements Container.
func (r *Residual) Children() []Layer {
	ch := []Layer{r.BodyLayer, r.ShortcutLayer}
	if r.PostAct != nil {
		ch = append(ch, r.PostAct)
	}
	return ch
}

// Params implements Layer.
func (r *Residual) Params() []*Param { return nil }

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor) *tensor.Tensor {
	body := Run(r.BodyLayer, x)
	short := Run(r.ShortcutLayer, x)
	if !body.SameShape(short) {
		panic(fmt.Sprintf("nn: Residual %q branch shapes differ: body %v vs shortcut %v", r.Name(), body.Shape(), short.Shape()))
	}
	sum := r.output(body.Shape()...)
	tensor.AddInto(sum, body, short)
	if r.PostAct != nil {
		sum = Run(r.PostAct, sum)
	}
	return sum
}

// Backward implements Layer.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.PostAct != nil {
		grad = RunBackward(r.PostAct, grad)
	}
	gBody := RunBackward(r.BodyLayer, grad)
	gShort := RunBackward(r.ShortcutLayer, grad)
	return tensor.Add(gBody, gShort)
}

// Concat runs each branch on the same input and concatenates the branch
// outputs along the channel dimension — the inception module (GoogLeNet),
// fire module expand (SqueezeNet) and dense block (DenseNet) topology.
type Concat struct {
	Base
	Branches []Layer

	// outs holds the branch outputs during a forward; it and lastCounts
	// keep their backing arrays across forwards.
	outs       []*tensor.Tensor
	lastCounts []int
}

var _ Container = (*Concat)(nil)

// NewConcat returns a channel-concatenation container.
func NewConcat(name string, branches ...Layer) *Concat {
	return &Concat{Base: NewBase(name), Branches: branches}
}

// Children implements Container.
func (c *Concat) Children() []Layer { return c.Branches }

// Params implements Layer.
func (c *Concat) Params() []*Param { return nil }

// Forward implements Layer.
func (c *Concat) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(c.outs) != len(c.Branches) {
		c.outs = make([]*tensor.Tensor, len(c.Branches))
		c.lastCounts = make([]int, len(c.Branches))
	}
	outs := c.outs
	ctot := 0
	for i, b := range c.Branches {
		outs[i] = Run(b, x)
		c.lastCounts[i] = outs[i].Dim(1)
		ctot += c.lastCounts[i]
	}
	out := c.output(outs[0].Dim(0), ctot, outs[0].Dim(2), outs[0].Dim(3))
	tensor.ConcatChannelsInto(out, outs...)
	clear(outs) // hold no branch output past the forward
	return out
}

// Backward implements Layer.
func (c *Concat) Backward(grad *tensor.Tensor) *tensor.Tensor {
	parts := tensor.SplitChannels(grad, c.lastCounts...)
	var sum *tensor.Tensor
	for i, b := range c.Branches {
		g := RunBackward(b, parts[i])
		if sum == nil {
			sum = g
		} else {
			tensor.AddInPlace(sum, g)
		}
	}
	return sum
}
