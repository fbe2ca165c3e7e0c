package nn

import (
	"fmt"
	"math"

	"gofi/internal/tensor"
)

// BatchNorm2d normalizes each channel of a [N,C,H,W] tensor. In training
// mode it uses batch statistics and updates exponential running averages;
// in evaluation mode it uses the running statistics, so inference is
// deterministic.
type BatchNorm2d struct {
	Base
	Channels int
	Eps      float32
	Momentum float32

	gamma *Param // scale [C]
	beta  *Param // shift [C]

	// Running statistics (not trained by gradient).
	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor

	// Backward cache (training mode).
	lastInput *tensor.Tensor
	lastXHat  *tensor.Tensor
	lastMean  []float32
	lastInvSD []float32
}

var _ Layer = (*BatchNorm2d)(nil)
var _ TrainAware = (*BatchNorm2d)(nil)

// NewBatchNorm2d returns a batch-norm layer with gamma=1, beta=0 and unit
// running variance.
func NewBatchNorm2d(name string, channels int) *BatchNorm2d {
	return &BatchNorm2d{
		Base:        NewBase(name),
		Channels:    channels,
		Eps:         1e-5,
		Momentum:    0.1,
		gamma:       &Param{Name: name + ".gamma", Data: tensor.Ones(channels), Grad: tensor.New(channels)},
		beta:        &Param{Name: name + ".beta", Data: tensor.New(channels), Grad: tensor.New(channels)},
		RunningMean: tensor.New(channels),
		RunningVar:  tensor.Ones(channels),
	}
}

// Gamma returns the scale parameter.
func (l *BatchNorm2d) Gamma() *Param { return l.gamma }

// Beta returns the shift parameter.
func (l *BatchNorm2d) Beta() *Param { return l.beta }

// Params implements Layer.
func (l *BatchNorm2d) Params() []*Param { return []*Param{l.gamma, l.beta} }

// Forward implements Layer.
func (l *BatchNorm2d) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != l.Channels {
		panic(fmt.Sprintf("nn: BatchNorm2d %q expects [N,%d,H,W], got %v", l.Name(), l.Channels, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	plane := h * w
	cnt := n * plane
	xd := x.Data()

	if l.Training() {
		out := tensor.New(x.Shape()...)
		od := out.Data()
		l.lastInput = x
		l.lastXHat = tensor.New(x.Shape()...)
		l.lastMean = make([]float32, c)
		l.lastInvSD = make([]float32, c)
		xh := l.lastXHat.Data()
		for ch := 0; ch < c; ch++ {
			var sum, sq float64
			for s := 0; s < n; s++ {
				base := (s*c + ch) * plane
				for i := 0; i < plane; i++ {
					v := float64(xd[base+i])
					sum += v
					sq += v * v
				}
			}
			mean := sum / float64(cnt)
			variance := sq/float64(cnt) - mean*mean
			if variance < 0 {
				variance = 0
			}
			invSD := 1 / math.Sqrt(variance+float64(l.Eps))
			l.lastMean[ch] = float32(mean)
			l.lastInvSD[ch] = float32(invSD)
			// Exponential moving averages, PyTorch-style: new = (1-m)*old + m*batch.
			l.RunningMean.SetFlat(ch, (1-l.Momentum)*l.RunningMean.AtFlat(ch)+l.Momentum*float32(mean))
			l.RunningVar.SetFlat(ch, (1-l.Momentum)*l.RunningVar.AtFlat(ch)+l.Momentum*float32(variance))
			g, b := l.gamma.Data.AtFlat(ch), l.beta.Data.AtFlat(ch)
			for s := 0; s < n; s++ {
				base := (s*c + ch) * plane
				for i := 0; i < plane; i++ {
					xhat := (xd[base+i] - float32(mean)) * float32(invSD)
					xh[base+i] = xhat
					od[base+i] = g*xhat + b
				}
			}
		}
		return out
	}

	// Evaluation mode: use running statistics. Every element is
	// overwritten, so a reused output buffer needs no clearing.
	out := l.output(x.Shape()...)
	od := out.Data()
	for ch := 0; ch < c; ch++ {
		scale, shift := l.evalAffine(ch)
		for s := 0; s < n; s++ {
			base := (s*c + ch) * plane
			tensor.ScaleShiftInto(od[base:base+plane], xd[base:base+plane], scale, shift)
		}
	}
	return out
}

// evalAffine returns channel ch's evaluation-mode map x·scale + shift,
// from the running statistics.
func (l *BatchNorm2d) evalAffine(ch int) (scale, shift float32) {
	mean := l.RunningMean.AtFlat(ch)
	invSD := float32(1 / math.Sqrt(float64(l.RunningVar.AtFlat(ch))+float64(l.Eps)))
	scale = l.gamma.Data.AtFlat(ch) * invSD
	return scale, l.beta.Data.AtFlat(ch) - float32(mean*scale)
}

// Backward implements Layer (training-mode statistics).
func (l *BatchNorm2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.lastXHat == nil {
		panic(fmt.Sprintf("nn: BatchNorm2d %q Backward without a training-mode Forward", l.Name()))
	}
	n, c := grad.Dim(0), grad.Dim(1)
	plane := grad.Dim(2) * grad.Dim(3)
	cnt := float32(n * plane)
	out := tensor.New(grad.Shape()...)
	gd, od := grad.Data(), out.Data()
	xh := l.lastXHat.Data()

	for ch := 0; ch < c; ch++ {
		var sumG, sumGX float32
		for s := 0; s < n; s++ {
			base := (s*c + ch) * plane
			for i := 0; i < plane; i++ {
				g := gd[base+i]
				sumG += g
				sumGX += g * xh[base+i]
			}
		}
		l.gamma.Grad.SetFlat(ch, l.gamma.Grad.AtFlat(ch)+sumGX)
		l.beta.Grad.SetFlat(ch, l.beta.Grad.AtFlat(ch)+sumG)
		gam := l.gamma.Data.AtFlat(ch)
		invSD := l.lastInvSD[ch]
		for s := 0; s < n; s++ {
			base := (s*c + ch) * plane
			for i := 0; i < plane; i++ {
				// dL/dx = gamma*invSD * (g - mean(g) - xhat*mean(g*xhat))
				od[base+i] = gam * invSD * (gd[base+i] - sumG/cnt - xh[base+i]*sumGX/cnt)
			}
		}
	}
	return out
}
