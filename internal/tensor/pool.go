package tensor

import (
	"fmt"
	"math"
)

// PoolSpec describes the geometry of a 2-D pooling operation.
type PoolSpec struct {
	KernelH, KernelW int
	StrideH, StrideW int
	PadH, PadW       int
}

// Canon returns the spec with zero strides defaulted to the kernel size
// (the common non-overlapping pooling configuration).
func (s PoolSpec) Canon() PoolSpec {
	if s.StrideH == 0 {
		s.StrideH = s.KernelH
	}
	if s.StrideW == 0 {
		s.StrideW = s.KernelW
	}
	return s
}

// PoolOutShape returns the output shape [N,C,OH,OW] of a 2-D pooling
// operation over an input of shape [N,C,H,W] — the shape MaxPool2d and
// AvgPool2d produce, computed without running them.
func PoolOutShape(inShape []int, spec PoolSpec) []int {
	spec = spec.Canon()
	return []int{
		inShape[0], inShape[1],
		convOutSize(inShape[2], spec.KernelH, spec.StrideH, spec.PadH),
		convOutSize(inShape[3], spec.KernelW, spec.StrideW, spec.PadW),
	}
}

func checkPool(x *Tensor, spec PoolSpec) (PoolSpec, int, int) {
	spec = spec.Canon()
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: pooling input must be [N,C,H,W], got %v", x.shape))
	}
	if spec.KernelH <= 0 || spec.KernelW <= 0 {
		panic(fmt.Sprintf("tensor: invalid pooling kernel %dx%d", spec.KernelH, spec.KernelW))
	}
	if spec.KernelH > x.shape[2]+2*spec.PadH || spec.KernelW > x.shape[3]+2*spec.PadW {
		panic(fmt.Sprintf("tensor: pooling kernel %dx%d larger than padded input %v", spec.KernelH, spec.KernelW, x.shape))
	}
	oh := convOutSize(x.shape[2], spec.KernelH, spec.StrideH, spec.PadH)
	ow := convOutSize(x.shape[3], spec.KernelW, spec.StrideW, spec.PadW)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: pooling output %dx%d not positive for input %v spec %+v", oh, ow, x.shape, spec))
	}
	return spec, oh, ow
}

// MaxPool2d computes max pooling over x [N,C,H,W]. It returns the pooled
// tensor and the flat argmax index (into x's data) per output element,
// which MaxPool2dBackward uses to route gradients. Padded positions are
// treated as -Inf.
func MaxPool2d(x *Tensor, spec PoolSpec) (*Tensor, []int32) {
	spec, oh, ow := checkPool(x, spec)
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := New(n, c, oh, ow)
	arg := make([]int32, n*c*oh*ow)
	planes := n * c
	parallelForChunks(planes, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			in := x.data[p*h*w : (p+1)*h*w]
			o := out.data[p*oh*ow : (p+1)*oh*ow]
			a := arg[p*oh*ow : (p+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bi := int32(-1)
					for ky := 0; ky < spec.KernelH; ky++ {
						iy := oy*spec.StrideH - spec.PadH + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < spec.KernelW; kx++ {
							ix := ox*spec.StrideW - spec.PadW + kx
							if ix < 0 || ix >= w {
								continue
							}
							v := in[iy*w+ix]
							if v > best || bi < 0 {
								best = v
								bi = int32(p*h*w + iy*w + ix)
							}
						}
					}
					o[oy*ow+ox] = best
					a[oy*ow+ox] = bi
				}
			}
		}
	})
	return out, arg
}

// MaxPool2dBackward scatters gradOut back to the input positions recorded
// in arg by MaxPool2d.
func MaxPool2dBackward(inShape []int, arg []int32, gradOut *Tensor) *Tensor {
	grad := New(inShape...)
	if len(arg) != gradOut.Len() {
		panic(fmt.Sprintf("tensor: MaxPool2dBackward arg length %d != gradOut length %d", len(arg), gradOut.Len()))
	}
	for i, src := range arg {
		if src >= 0 {
			grad.data[src] += gradOut.data[i]
		}
	}
	return grad
}

// AvgPool2d computes average pooling over x [N,C,H,W]. The divisor is the
// full kernel area (count_include_pad semantics, matching PyTorch's
// default).
func AvgPool2d(x *Tensor, spec PoolSpec) *Tensor {
	spec, oh, ow := checkPool(x, spec)
	out := New(x.shape[0], x.shape[1], oh, ow)
	avgPool2dInto(out, x, spec)
	return out
}

// AvgPool2dInto is AvgPool2d writing into a caller-provided dst of shape
// PoolOutShape(x, spec), so layers can reuse an output buffer across
// forward passes.
func AvgPool2dInto(dst, x *Tensor, spec PoolSpec) {
	spec, oh, ow := checkPool(x, spec)
	if want := []int{x.shape[0], x.shape[1], oh, ow}; !sameShape(dst.shape, want) {
		panic(fmt.Sprintf("tensor: AvgPool2dInto dst shape %v != expected %v", dst.shape, want))
	}
	avgPool2dInto(dst, x, spec)
}

// avgPool2dInto is the pooling kernel; spec must be canonical and shapes
// checked. Every output element is the chain ((+0 + v₀) + v₁ + …) · inv
// over its window in row-major order, padded taps skipped. The unpadded
// 2×2/stride-2 window (every DenseNet transition) runs that chain
// unrolled, without the bounds tests: no tap of it can leave the plane.
func avgPool2dInto(out, x *Tensor, spec PoolSpec) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := out.shape[2], out.shape[3]
	inv := 1 / float32(spec.KernelH*spec.KernelW)
	planes := n * c
	if spec == (PoolSpec{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}) {
		parallelForChunks(planes, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				in := x.data[p*h*w : (p+1)*h*w]
				o := out.data[p*oh*ow : (p+1)*oh*ow]
				for oy := 0; oy < oh; oy++ {
					r0 := in[2*oy*w : 2*oy*w+2*ow]
					r1 := in[(2*oy+1)*w : (2*oy+1)*w+2*ow]
					orow := o[oy*ow : (oy+1)*ow]
					for ox := range orow {
						var s float32
						s += r0[2*ox]
						s += r0[2*ox+1]
						s += r1[2*ox]
						s += r1[2*ox+1]
						orow[ox] = s * inv
					}
				}
			}
		})
		return
	}
	parallelForChunks(planes, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			in := x.data[p*h*w : (p+1)*h*w]
			o := out.data[p*oh*ow : (p+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float32
					for ky := 0; ky < spec.KernelH; ky++ {
						iy := oy*spec.StrideH - spec.PadH + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < spec.KernelW; kx++ {
							ix := ox*spec.StrideW - spec.PadW + kx
							if ix < 0 || ix >= w {
								continue
							}
							s += in[iy*w+ix]
						}
					}
					o[oy*ow+ox] = s * inv
				}
			}
		}
	})
}

// AvgPool2dBackward distributes gradOut uniformly over each pooling
// window.
func AvgPool2dBackward(inShape []int, spec PoolSpec, gradOut *Tensor) *Tensor {
	spec = spec.Canon()
	grad := New(inShape...)
	n, c, h, w := inShape[0], inShape[1], inShape[2], inShape[3]
	oh, ow := gradOut.shape[2], gradOut.shape[3]
	inv := 1 / float32(spec.KernelH*spec.KernelW)
	for p := 0; p < n*c; p++ {
		g := grad.data[p*h*w : (p+1)*h*w]
		go_ := gradOut.data[p*oh*ow : (p+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				v := go_[oy*ow+ox] * inv
				for ky := 0; ky < spec.KernelH; ky++ {
					iy := oy*spec.StrideH - spec.PadH + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < spec.KernelW; kx++ {
						ix := ox*spec.StrideW - spec.PadW + kx
						if ix < 0 || ix >= w {
							continue
						}
						g[iy*w+ix] += v
					}
				}
			}
		}
	}
	return grad
}

// GlobalAvgPool2d averages each [H,W] plane, producing [N,C,1,1].
func GlobalAvgPool2d(x *Tensor) *Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: GlobalAvgPool2d input must be [N,C,H,W], got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := New(n, c, 1, 1)
	inv := 1 / float32(h*w)
	for p := 0; p < n*c; p++ {
		in := x.data[p*h*w : (p+1)*h*w]
		var s float32
		for _, v := range in {
			s += v
		}
		out.data[p] = s * inv
	}
	return out
}

// GlobalAvgPool2dBackward distributes each pooled gradient uniformly over
// its plane.
func GlobalAvgPool2dBackward(inShape []int, gradOut *Tensor) *Tensor {
	grad := New(inShape...)
	n, c, h, w := inShape[0], inShape[1], inShape[2], inShape[3]
	inv := 1 / float32(h*w)
	for p := 0; p < n*c; p++ {
		v := gradOut.data[p] * inv
		g := grad.data[p*h*w : (p+1)*h*w]
		for i := range g {
			g[i] = v
		}
	}
	return grad
}
