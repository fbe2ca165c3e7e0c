package nn

import (
	"bytes"
	"fmt"
	"math"
	"unsafe"

	"gofi/internal/tensor"
)

// Region execution: a chain node computed only where a fault can reach.
//
// A single-neuron fault dirties a small box of one activation; every
// later value outside the box's receptive growth equals the clean
// forward's. A Region holds a batch-1 [1,C,H,W] activation as the clean
// activation plus Patches — boxes of the values that differ from it — and
// the rules below map a Region through a layer computing only the
// patches' reach:
//
//   - eval BatchNorm2d and ReLU map each patch to the same box;
//   - a groups-1 Conv2d gathers the receptive crop of the patches' union
//     (clean values overlaid with the patches, the conv's padding written
//     out as +0.0) and runs the layer's own kernel over it with Pad 0,
//     giving one patch over every output channel;
//   - unpadded AvgPool2d/MaxPool2d map each patch through its windows;
//   - Sequential folds its children, Identity passes the Region on, and
//     Concat routes each branch's patches by its channel offset.
//
// Bits: a cropped conv computes every output element as the ascending-k
// chain over the same products (pad products with +0.0 included, which is
// what both conv lowerings stage — on int8, real 0.0 quantizes to the
// zero-point code the dense staging writes), blocked at the same gemmKC
// multiples, which the GEMM contract (DESIGN §10) fixes independent of
// the output partition; pooling is per window and the elementwise layers
// per element. So a patch holds the very bits the dense forward computes.
//
// Patches of one Region never share a channel: the diff of a dense
// output is one box, a conv emits one box over all its channels, the
// elementwise and pooling rules keep each patch's channels, and Concat
// offsets its branches into disjoint channel ranges.

// Box is the [C0,C1)×[Y0,Y1)×[X0,X1) box of a batch-1 activation; box
// data is laid out channel-major, [c][y][x].
type Box struct{ C0, C1, Y0, Y1, X0, X1 int }

func (b Box) len() int { return (b.C1 - b.C0) * (b.Y1 - b.Y0) * (b.X1 - b.X0) }

func (b Box) empty() bool { return b.C1 <= b.C0 || b.Y1 <= b.Y0 || b.X1 <= b.X0 }

func (b Box) intersect(o Box) Box {
	return Box{max(b.C0, o.C0), min(b.C1, o.C1), max(b.Y0, o.Y0), min(b.Y1, o.Y1), max(b.X0, o.X0), min(b.X1, o.X1)}
}

// Patch is a box of an activation together with its values.
type Patch struct {
	Box
	Data []float32
}

// Region is a batch-1 activation of shape [1,C,H,W]: the clean values
// clean describes, overlaid with Patches.
type Region struct {
	C, H, W int
	Patches []Patch
	// clean writes the clean activation's values over a box into dst.
	clean func(dst []float32, b Box)
}

// RegionScratch is the bump-allocated float32 memory one region forward
// draws its patches and crops from. Reset recycles it for the next
// forward; slices taken before stay valid until then (a growth moves on
// to a fresh buffer and leaves the old one to the taken slices).
type RegionScratch struct {
	buf []float32
	off int
}

// Reset makes every slice taken so far dead and the memory reusable.
func (sc *RegionScratch) Reset() { sc.off = 0 }

// take returns an uninitialised slice of n elements.
func (sc *RegionScratch) take(n int) []float32 {
	if sc.off+n > len(sc.buf) {
		sc.buf = make([]float32, max(2*len(sc.buf), n))
		sc.off = 0
	}
	s := sc.buf[sc.off : sc.off+n : sc.off+n]
	sc.off += n
	return s
}

// tensorClean is the clean source reading a [1,C,H,W] tensor.
func tensorClean(t *tensor.Tensor) func(dst []float32, b Box) {
	full := Box{0, t.Dim(1), 0, t.Dim(2), 0, t.Dim(3)}
	return func(dst []float32, b Box) { copyBox(dst, b, t.Data(), full) }
}

// copyBox copies the part of src (box sb) inside db into dst (box db).
func copyBox(dst []float32, db Box, src []float32, sb Box) {
	in := db.intersect(sb)
	if in.empty() {
		return
	}
	dh, dw := db.Y1-db.Y0, db.X1-db.X0
	sh, sw := sb.Y1-sb.Y0, sb.X1-sb.X0
	n := in.X1 - in.X0
	for c := in.C0; c < in.C1; c++ {
		for y := in.Y0; y < in.Y1; y++ {
			d := ((c-db.C0)*dh+y-db.Y0)*dw + in.X0 - db.X0
			s := ((c-sb.C0)*sh+y-sb.Y0)*sw + in.X0 - sb.X0
			copy(dst[d:d+n], src[s:s+n])
		}
	}
}

// DiffRegion returns out, a batch-1 activation, as a Region over clean:
// one patch, the bounding box of every element whose bits differ from
// clean, or none. ok is false when the two cannot be compared (shapes
// differ, or not a batch-1 rank-4 activation).
func DiffRegion(out, clean *tensor.Tensor, sc *RegionScratch) (r *Region, ok bool) {
	if out.Rank() != 4 || out.Dim(0) != 1 || !out.SameShape(clean) {
		return nil, false
	}
	r = &Region{C: out.Dim(1), H: out.Dim(2), W: out.Dim(3)}
	r.Patches = []Patch{{Box{0, r.C, 0, r.H, 0, r.W}, out.Data()}}
	return r, r.Settle(clean, sc)
}

// Settle rebases r onto clean, the stored clean activation r's values
// are computed against: every patch element whose bits equal clean's is
// dropped, and each patch shrinks to the bounding box of what is left
// (an emptied patch goes). ok is false when clean does not have r's
// shape.
func (r *Region) Settle(clean *tensor.Tensor, sc *RegionScratch) (ok bool) {
	if clean.Rank() != 4 || clean.Dim(0) != 1 || clean.Dim(1) != r.C || clean.Dim(2) != r.H || clean.Dim(3) != r.W {
		return false
	}
	cd := clean.Data()
	kept := r.Patches[:0]
	for _, p := range r.Patches {
		t := Box{p.C1, p.C0, p.Y1, p.Y0, p.X1, p.X0} // inverted: empty until a differing element
		w := p.X1 - p.X0
		i := 0
		for c := p.C0; c < p.C1; c++ {
			for y := p.Y0; y < p.Y1; y++ {
				got, want := p.Data[i:i+w], cd[(c*r.H+y)*r.W+p.X0:][:w]
				i += w
				if sameBits(got, want) {
					continue
				}
				lo, hi := 0, w-1
				for math.Float32bits(got[lo]) == math.Float32bits(want[lo]) {
					lo++
				}
				for math.Float32bits(got[hi]) == math.Float32bits(want[hi]) {
					hi--
				}
				t = Box{min(t.C0, c), max(t.C1, c+1), min(t.Y0, y), max(t.Y1, y+1), min(t.X0, p.X0+lo), max(t.X1, p.X0+hi+1)}
			}
		}
		switch {
		case t.empty():
			continue
		case t != p.Box:
			d := sc.take(t.len())
			copyBox(d, t, p.Data, p.Box)
			p = Patch{t, d}
		}
		kept = append(kept, p)
	}
	r.Patches = kept
	r.clean = tensorClean(clean)
	return true
}

// sameBits reports whether a and b, of equal length, hold the same bit
// patterns: a memory compare, which the runtime vectorises.
func sameBits(a, b []float32) bool {
	if len(a) == 0 {
		return true
	}
	return bytes.Equal(unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), 4*len(a)), unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), 4*len(b)))
}

// Dense writes r out as a [1,C,H,W] tensor in scratch memory: what a
// dense forward resumes from when the region path falls back.
func (r *Region) Dense(sc *RegionScratch) *tensor.Tensor {
	b := Box{0, r.C, 0, r.H, 0, r.W}
	d := sc.take(b.len())
	r.gather(d, b, sc)
	return tensor.FromSlice(d, 1, r.C, r.H, r.W)
}

// cleanView is r without its patches: the clean activation alone.
func (r *Region) cleanView() *Region { return &Region{C: r.C, H: r.H, W: r.W, clean: r.clean} }

// gather writes r's values over b into dst: +0.0 where b leaves the
// [H, W] plane (a conv's padding written out), the clean activation
// elsewhere, overlaid with every patch.
func (r *Region) gather(dst []float32, b Box, sc *RegionScratch) {
	in := b.intersect(Box{b.C0, b.C1, 0, r.H, 0, r.W})
	switch {
	case in == b:
		r.clean(dst, b)
	default:
		clear(dst)
		if !in.empty() {
			tmp := sc.take(in.len())
			r.clean(tmp, in)
			copyBox(dst, b, tmp, in)
		}
	}
	for _, p := range r.Patches {
		copyBox(dst, b, p.Data, p.Box)
	}
}

// reachDim returns the output index range [o0, o1) of a window op
// (kernel k, stride s, padding pad, n outputs) whose windows read any of
// the input indices [lo, hi).
func reachDim(lo, hi, k, s, pad, n int) (o0, o1 int) {
	o0 = max(0, ceilDiv(lo+pad-k+1, s))
	o1 = min(n, floorDiv(hi-1+pad, s)+1)
	return o0, max(o0, o1)
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

func ceilDiv(a, b int) int { return -floorDiv(-a, b) }

// StepRegion maps in through chain node i by the region rules. ok is
// false when the node holds a layer without a rule, or a conv whose
// reach covers its whole output plane; the caller then resumes the dense
// forward at node i from in.Dense. Like Step, it recovers panics into an
// error. No hook fires: the caller runs the region path only when the
// node's hooks have nothing to do.
func (c *Chain) StepRegion(i int, in *Region, sc *RegionScratch) (out *Region, ok bool, err error) {
	if i < 0 || i >= len(c.nodes) {
		return nil, false, c.rangeErr("StepRegion", i)
	}
	defer func() {
		if r := recover(); r != nil {
			out, ok, err = nil, false, fmt.Errorf("nn: region step %d of layer %q: %v", i, pathName(c.root, 0, true), r)
		}
	}()
	out, ok = regionForward(c.nodes[i], in, sc)
	return out, ok, nil
}

// regionForward is the rule dispatch.
func regionForward(l Layer, in *Region, sc *RegionScratch) (*Region, bool) {
	switch v := l.(type) {
	case *Sequential:
		for _, child := range v.layers {
			var ok bool
			if in, ok = regionForward(child, in, sc); !ok {
				return nil, false
			}
		}
		return in, true
	case *Identity:
		return in, true
	case *Concat:
		return v.region(in, sc)
	case *BatchNorm2d:
		if v.Training() || in.C != v.Channels {
			return nil, false
		}
		return mapRegion(in, sc, func(dst, src []float32, ch int) {
			scale, shift := v.evalAffine(ch)
			tensor.ScaleShiftInto(dst, src, scale, shift)
		}), true
	case *ReLU:
		hi := v.hi()
		return mapRegion(in, sc, func(dst, src []float32, _ int) { tensor.ReLUInto(dst, src, hi) }), true
	case *Conv2d:
		return v.region(in, sc)
	case *AvgPool2d:
		return poolRegion(in, v.Spec, sc, func(dst, x *tensor.Tensor) { tensor.AvgPool2dInto(dst, x, v.Spec) })
	case *MaxPool2d:
		return poolRegion(in, v.Spec, sc, func(dst, x *tensor.Tensor) {
			out, _ := tensor.MaxPool2d(x, v.Spec)
			copy(dst.Data(), out.Data())
		})
	}
	return nil, false
}

// mapRegion applies a per-channel elementwise map f(dst, src, channel)
// to in: to each patch into a new one over the same box, and to the clean
// values on demand.
func mapRegion(in *Region, sc *RegionScratch, f func(dst, src []float32, ch int)) *Region {
	out := &Region{C: in.C, H: in.H, W: in.W, Patches: make([]Patch, len(in.Patches))}
	for i, p := range in.Patches {
		d := sc.take(len(p.Data))
		mapChannels(d, p.Data, p.Box, f)
		out.Patches[i] = Patch{p.Box, d}
	}
	out.clean = func(dst []float32, b Box) {
		in.clean(dst, b)
		mapChannels(dst, dst, b, f)
	}
	return out
}

func mapChannels(dst, src []float32, b Box, f func(dst, src []float32, ch int)) {
	plane := (b.Y1 - b.Y0) * (b.X1 - b.X0)
	for c := b.C0; c < b.C1; c++ {
		o := (c - b.C0) * plane
		f(dst[o:o+plane], src[o:o+plane], c)
	}
}

// region is Conv2d's rule: the output box every patch reaches, over all
// output channels, computed from the receptive crop.
func (l *Conv2d) region(in *Region, sc *RegionScratch) (*Region, bool) {
	s := l.Spec
	if s.Groups != 1 || in.C != l.InChannels {
		return nil, false
	}
	outShape := l.OutShape([]int{1, in.C, in.H, in.W})
	out := &Region{C: l.OutChannels, H: outShape[2], W: outShape[3]}
	clean := in.cleanView()
	out.clean = func(dst []float32, b Box) {
		all := Box{0, l.OutChannels, b.Y0, b.Y1, b.X0, b.X1}
		if all == b {
			l.crop(dst, clean, b, sc)
			return
		}
		tmp := sc.take(all.len())
		l.crop(tmp, clean, all, sc)
		copyBox(dst, b, tmp, all)
	}
	if len(in.Patches) == 0 {
		return out, true
	}
	u := in.Patches[0].Box
	for _, p := range in.Patches[1:] {
		u = Box{0, 0, min(u.Y0, p.Y0), max(u.Y1, p.Y1), min(u.X0, p.X0), max(u.X1, p.X1)}
	}
	ob := Box{C0: 0, C1: out.C}
	ob.Y0, ob.Y1 = reachDim(u.Y0, u.Y1, l.KernelH, s.StrideH, s.PadH, out.H)
	ob.X0, ob.X1 = reachDim(u.X0, u.X1, l.KernelW, s.StrideW, s.PadW, out.W)
	if ob.empty() {
		return out, true
	}
	// Grown to the box the kernels serve fastest; what it adds beyond the
	// reach computes clean values, which the next Settle drops.
	ob.Y0, ob.Y1, ob.X0, ob.X1 = tensor.ConvCropBox(ob.Y0, ob.Y1, ob.X0, ob.X1, out.H, out.W, in.C, l.weight.Data.Shape(), s)
	if ob.Y1-ob.Y0 == out.H && ob.X1-ob.X0 == out.W {
		return nil, false // the whole plane: the dense forward does the same work
	}
	d := sc.take(ob.len())
	l.crop(d, in, ob, sc)
	out.Patches = []Patch{{ob, d}}
	return out, true
}

// crop computes the conv output over ob (every output channel) from in:
// the receptive crop, padding written out as +0.0, through the layer's
// kernel with Pad 0.
func (l *Conv2d) crop(dst []float32, in *Region, ob Box, sc *RegionScratch) {
	s := l.Spec
	oh, ow := ob.Y1-ob.Y0, ob.X1-ob.X0
	ih, iw := (oh-1)*s.StrideH+l.KernelH, (ow-1)*s.StrideW+l.KernelW
	y0, x0 := ob.Y0*s.StrideH-s.PadH, ob.X0*s.StrideW-s.PadW
	ib := Box{0, in.C, y0, y0 + ih, x0, x0 + iw}
	x := sc.take(ib.len())
	in.gather(x, ib, sc)
	s.PadH, s.PadW = 0, 0
	l.forwardInto(tensor.FromSlice(dst, 1, l.OutChannels, oh, ow), tensor.FromSlice(x, 1, in.C, ih, iw), s)
}

// poolRegion is the rule of an unpadded pooling layer: each patch maps
// to the windows that read it, computed from their input crop by run.
func poolRegion(in *Region, spec tensor.PoolSpec, sc *RegionScratch, run func(dst, x *tensor.Tensor)) (*Region, bool) {
	if spec.PadH != 0 || spec.PadW != 0 {
		return nil, false
	}
	outShape := tensor.PoolOutShape([]int{1, in.C, in.H, in.W}, spec)
	out := &Region{C: in.C, H: outShape[2], W: outShape[3]}
	crop := func(dst []float32, src *Region, ob Box) {
		oh, ow := ob.Y1-ob.Y0, ob.X1-ob.X0
		ih, iw := (oh-1)*spec.StrideH+spec.KernelH, (ow-1)*spec.StrideW+spec.KernelW
		ib := Box{ob.C0, ob.C1, ob.Y0 * spec.StrideH, ob.Y0*spec.StrideH + ih, ob.X0 * spec.StrideW, ob.X0*spec.StrideW + iw}
		x := sc.take(ib.len())
		src.gather(x, ib, sc)
		cp := ob.C1 - ob.C0
		run(tensor.FromSlice(dst, 1, cp, oh, ow), tensor.FromSlice(x, 1, cp, ih, iw))
	}
	clean := in.cleanView()
	out.clean = func(dst []float32, b Box) { crop(dst, clean, b) }
	for _, p := range in.Patches {
		ob := Box{C0: p.C0, C1: p.C1}
		ob.Y0, ob.Y1 = reachDim(p.Y0, p.Y1, spec.KernelH, spec.StrideH, 0, out.H)
		ob.X0, ob.X1 = reachDim(p.X0, p.X1, spec.KernelW, spec.StrideW, 0, out.W)
		if ob.empty() {
			continue
		}
		d := sc.take(ob.len())
		crop(d, in, ob)
		out.Patches = append(out.Patches, Patch{ob, d})
	}
	return out, true
}

// region is Concat's rule: every branch's Region, its patches moved to
// the branch's channel offset.
func (c *Concat) region(in *Region, sc *RegionScratch) (*Region, bool) {
	if len(c.Branches) == 0 {
		return nil, false
	}
	parts := make([]*Region, len(c.Branches))
	out := &Region{}
	for i, b := range c.Branches {
		p, ok := regionForward(b, in, sc)
		if !ok || (i > 0 && (p.H != out.H || p.W != out.W)) {
			return nil, false
		}
		for _, q := range p.Patches {
			q.C0, q.C1 = q.C0+out.C, q.C1+out.C
			out.Patches = append(out.Patches, q)
		}
		parts[i] = p
		out.C, out.H, out.W = out.C+p.C, p.H, p.W
	}
	out.clean = func(dst []float32, b Box) {
		plane := (b.Y1 - b.Y0) * (b.X1 - b.X0)
		off := 0
		for _, p := range parts {
			if lo, hi := max(b.C0, off), min(b.C1, off+p.C); lo < hi {
				p.clean(dst[(lo-b.C0)*plane:(hi-b.C0)*plane], Box{lo - off, hi - off, b.Y0, b.Y1, b.X0, b.X1})
			}
			off += p.C
		}
	}
	return out, true
}
