package nn

import "gofi/internal/tensor"

// MaxPool2d is a max-pooling layer.
type MaxPool2d struct {
	Base
	Spec tensor.PoolSpec

	lastInShape []int
	lastArg     []int32
}

var _ Layer = (*MaxPool2d)(nil)

// NewMaxPool2d returns a max-pooling layer with a square kernel; stride
// defaults to the kernel size when 0.
func NewMaxPool2d(name string, kernel, stride, pad int) *MaxPool2d {
	return &MaxPool2d{
		Base: NewBase(name),
		Spec: tensor.PoolSpec{KernelH: kernel, KernelW: kernel, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}.Canon(),
	}
}

// Params implements Layer.
func (l *MaxPool2d) Params() []*Param { return nil }

// Forward implements Layer.
func (l *MaxPool2d) Forward(x *tensor.Tensor) *tensor.Tensor {
	out, arg := tensor.MaxPool2d(x, l.Spec)
	l.lastInShape = x.Shape()
	l.lastArg = arg
	return out
}

// Backward implements Layer.
func (l *MaxPool2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return tensor.MaxPool2dBackward(l.lastInShape, l.lastArg, grad)
}

// AvgPool2d is an average-pooling layer.
type AvgPool2d struct {
	Base
	Spec tensor.PoolSpec

	lastInShape []int
}

var _ Layer = (*AvgPool2d)(nil)

// NewAvgPool2d returns an average-pooling layer with a square kernel;
// stride defaults to the kernel size when 0.
func NewAvgPool2d(name string, kernel, stride, pad int) *AvgPool2d {
	return &AvgPool2d{
		Base: NewBase(name),
		Spec: tensor.PoolSpec{KernelH: kernel, KernelW: kernel, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}.Canon(),
	}
}

// Params implements Layer.
func (l *AvgPool2d) Params() []*Param { return nil }

// Forward implements Layer.
func (l *AvgPool2d) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.lastInShape = x.Shape()
	out := l.output(tensor.PoolOutShape(l.lastInShape, l.Spec)...)
	tensor.AvgPool2dInto(out, x, l.Spec)
	return out
}

// Backward implements Layer.
func (l *AvgPool2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return tensor.AvgPool2dBackward(l.lastInShape, l.Spec, grad)
}

// GlobalAvgPool2d reduces each channel plane to its mean, producing
// [N,C,1,1].
type GlobalAvgPool2d struct {
	Base

	lastInShape []int
}

var _ Layer = (*GlobalAvgPool2d)(nil)

// NewGlobalAvgPool2d returns a global average pooling layer.
func NewGlobalAvgPool2d(name string) *GlobalAvgPool2d {
	return &GlobalAvgPool2d{Base: NewBase(name)}
}

// Params implements Layer.
func (l *GlobalAvgPool2d) Params() []*Param { return nil }

// Forward implements Layer.
func (l *GlobalAvgPool2d) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.lastInShape = x.Shape()
	return tensor.GlobalAvgPool2d(x)
}

// Backward implements Layer.
func (l *GlobalAvgPool2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return tensor.GlobalAvgPool2dBackward(l.lastInShape, grad)
}
