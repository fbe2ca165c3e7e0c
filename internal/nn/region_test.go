package nn

import (
	"math"
	"math/rand"
	"testing"

	"gofi/internal/tensor"
)

// TestRegionSettleComparesBits: Settle keeps an element whose bits differ
// from clean even when the two compare equal as floats (−0 against +0),
// drops one whose bits match even when it compares unequal (a NaN against
// the same NaN), and shrinks the patch to what differs.
func TestRegionSettleComparesBits(t *testing.T) {
	nan := float32(math.NaN())
	clean := tensor.FromSlice([]float32{
		0, 1, nan,
		2, 3, 4,
	}, 1, 1, 2, 3)
	r := &Region{C: 1, H: 2, W: 3, Patches: []Patch{{Box{0, 1, 0, 2, 0, 3}, []float32{
		float32(math.Copysign(0, -1)), 1, nan,
		2, 3, 4,
	}}}}
	var sc RegionScratch
	if !r.Settle(clean, &sc) {
		t.Fatal("Settle refused a same-shape clean tensor")
	}
	if len(r.Patches) != 1 || r.Patches[0].Box != (Box{0, 1, 0, 1, 0, 1}) || !math.Signbit(float64(r.Patches[0].Data[0])) {
		t.Fatalf("patches after Settle: %+v, want the −0 at (0,0) alone", r.Patches)
	}
	r.Patches[0].Data[0] = 0
	r.Settle(clean, &sc)
	if len(r.Patches) != 0 {
		t.Fatalf("a patch equal to clean bit for bit survived Settle: %+v", r.Patches)
	}
}

// TestRegionRulesMatchDense drives every region rule, strided and padded
// conv geometries included, with random patches holding NaN, ±Inf and ±0
// among ordinary values: the rule's output, settled on the clean output,
// written out dense, equals the layer's dense forward of the patched input
// bit for bit, up to NaN payload (the kernels' contract, DESIGN §10). A
// rule may decline (a conv reaching its whole plane), never differ.
func TestRegionRulesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := func(c int) *BatchNorm2d {
		l := NewBatchNorm2d("bn", c)
		for i := 0; i < c; i++ {
			l.RunningMean.SetFlat(i, float32(rng.NormFloat64()))
			l.RunningVar.SetFlat(i, float32(0.5+rng.Float64()))
		}
		return l
	}
	layers := map[string]Layer{
		"conv3x3_pad1":     NewConv2d("c", rng, 6, 5, 3, Conv2dConfig{Pad: 1}),
		"conv3x3_stride2":  NewConv2d("c", rng, 6, 5, 3, Conv2dConfig{Pad: 1, Stride: 2}),
		"conv1x1":          NewConv2d("c", rng, 6, 5, 1, Conv2dConfig{NoBias: true}),
		"conv1x1_stride2":  NewConv2d("c", rng, 6, 5, 1, Conv2dConfig{Stride: 2}),
		"conv5x5_unpadded": NewConv2d("c", rng, 6, 5, 5, Conv2dConfig{}),
		"batchnorm":        bn(6),
		"relu6":            NewReLU6("r"),
		"avgpool":          NewAvgPool2d("p", 2, 0, 0),
		"maxpool3_stride2": NewMaxPool2d("p", 3, 2, 0),
		"dense_layer": NewConcat("d", NewIdentity("id"),
			NewSequential("b", bn(6), NewReLU("r"), NewConv2d("c", rng, 6, 4, 3, Conv2dConfig{Pad: 1, NoBias: true}))),
	}
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)), 1e30}
	for name, l := range layers {
		t.Run(name, func(t *testing.T) {
			ran := 0
			for trial := 0; trial < 40; trial++ {
				const c, h, w = 6, 13, 11
				x := tensor.RandUniform(rng, -2, 2, 1, c, h, w)
				b := Box{rng.Intn(c), 0, rng.Intn(h), 0, rng.Intn(w), 0}
				b.C1, b.Y1, b.X1 = b.C0+1+rng.Intn(c-b.C0), b.Y0+1+rng.Intn(min(4, h-b.Y0)), b.X0+1+rng.Intn(min(4, w-b.X0))
				p := Patch{b, make([]float32, b.len())}
				for i := range p.Data {
					if rng.Intn(4) == 0 {
						p.Data[i] = specials[rng.Intn(len(specials))]
					} else {
						p.Data[i] = float32(rng.NormFloat64() * 3)
					}
				}
				var sc RegionScratch
				in := &Region{C: c, H: h, W: w, Patches: []Patch{p}, clean: tensorClean(x)}
				faulty := in.Dense(&sc)
				want := Run(l, faulty).Clone()
				clean := Run(l, x).Clone()
				out, ok := regionForward(l, in, &sc)
				if !ok {
					continue
				}
				ran++
				if !out.Settle(clean, &sc) {
					t.Fatalf("trial %d: region output %dx%dx%d does not fit the dense output %v", trial, out.C, out.H, out.W, clean.Shape())
				}
				got := out.Dense(&sc)
				for i, v := range want.Data() {
					g := got.Data()[i]
					if math.Float32bits(g) != math.Float32bits(v) && !(g != g && v != v) {
						t.Fatalf("trial %d (patch %+v): element %d = %v, dense %v", trial, b, i, got.Data()[i], v)
					}
				}
			}
			if ran < 10 {
				t.Fatalf("the rule ran on %d of 40 patches", ran)
			}
		})
	}
}
