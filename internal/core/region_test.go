package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/tensor"
)

// regionRig is one model on one backend with a full-budget store warmed
// for one input: what a campaign replica holds when a trial starts.
type regionRig struct {
	inj    *Injector
	runner *PrefixRunner
	x      *tensor.Tensor
	clean  *tensor.Tensor // the clean logits
	region *obs.Counter
	masked *obs.Counter
}

// newRegionRig builds model (a models registry name) at 32×32 with
// randomised eval batch-norm statistics, quantized when int8 is set, and
// warms its store for one random input.
func newRegionRig(t testing.TB, model string, int8 bool) *regionRig {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	m, err := models.Build(model, rng, 10, 32)
	if err != nil {
		t.Fatal(err)
	}
	nn.Walk(m, func(_ string, l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2d); ok {
			for c := 0; c < bn.Channels; c++ {
				bn.RunningMean.SetFlat(c, float32(rng.NormFloat64()*0.2))
				bn.RunningVar.SetFlat(c, float32(0.5+rng.Float64()))
				bn.Gamma().Data.SetFlat(c, float32(0.5+rng.Float64()))
				bn.Beta().Data.SetFlat(c, float32(rng.NormFloat64()*0.2))
			}
		}
	})
	nn.SetTraining(m, false)
	cfg := Config{Height: 32, Width: 32, IncludeLinear: true}
	if int8 {
		if err := nn.QuantizeModel(m, tensor.RandUniform(rng, -1, 1, 4, 3, 32, 32), nn.QuantizeOptions{}); err != nil {
			t.Fatal(err)
		}
		cfg.DType = INT8
	}
	inj, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if int8 {
		if err := inj.UseQuantizedModel(); err != nil {
			t.Fatal(err)
		}
	}
	runner, err := NewPrefixRunner(inj, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rig := &regionRig{inj: inj, runner: runner, x: tensor.RandUniform(rng, -1, 1, 1, 3, 32, 32),
		region: reg.Counter("region"), masked: reg.Counter("masked")}
	runner.SetMetrics(PrefixMetrics{Region: rig.region, MaskedExits: rig.masked})
	logits, err := runner.Warm(0, rig.x)
	if err != nil {
		t.Fatal(err)
	}
	rig.clean = logits.Clone()
	return rig
}

// check arms site with model on a reset injector and requires the region
// suffix to be legal and to equal the dense forward: the same logits
// bit for bit, or — when it reports the fault masked — dense logits
// equal to the clean ones. It returns whether the trial exited masked.
func (rig *regionRig) check(t testing.TB, site NeuronSite, em ErrorModel) (masked bool) {
	t.Helper()
	ctx := fmt.Sprintf("%s at %v", em.Name(), site)
	rig.inj.Reset()
	if err := rig.inj.DeclareNeuronFI(em, site); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	want := nn.Run(rig.inj.Model(), rig.x).Clone()
	if !rig.runner.RegionLegal() {
		t.Fatalf("%s: a lone neuron site is not region-legal", ctx)
	}
	cut := rig.runner.Plan().CutFor(site.Layer)
	boundary, err := rig.runner.Boundary(0, cut, func() *tensor.Tensor { return rig.x })
	if err != nil {
		t.Fatal(err)
	}
	got, masked, err := rig.runner.ForwardRegion(0, cut, boundary)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if masked {
		got = rig.clean
	}
	requireBitIdentical(t, got, want, fmt.Sprintf("%s (masked %v)", ctx, masked))
	return masked
}

// TestRegionSuffixMatchesDense is the region suffix's differential wall:
// on DenseNet-32 and AlexNet-32, both backends, at one and four tensor
// workers, a bit flip at a corner, edge and centre pixel of every hooked
// layer (the linear head included) gives the dense forward's logits bit
// for bit, or is masked exactly when the dense logits are the clean ones.
// The float32 bits {0, 22, 23, 30, 31} make NaN, ±Inf and ±0 outcomes; the
// int8 backend flips bits of the stored code.
func TestRegionSuffixMatchesDense(t *testing.T) {
	for _, model := range []string{"densenet", "alexnet"} {
		for _, int8 := range []bool{false, true} {
			bits := []int{0, 22, 23, 30, 31}
			backend := "f32"
			if int8 {
				bits, backend = []int{0, 6, 7}, "int8"
			}
			t.Run(model+"/"+backend, func(t *testing.T) {
				rig := newRegionRig(t, model, int8)
				for _, workers := range []int{1, 4} {
					prev := tensor.SetWorkers(workers)
					trials := 0
					masked := 0
					for l, info := range rig.inj.Layers() {
						c, h, w := info.OutShape[1], 1, 1
						if len(info.OutShape) == 4 {
							h, w = info.OutShape[2], info.OutShape[3]
						}
						pixels := [][2]int{{0, 0}, {0, w / 2}, {h / 2, w / 2}, {h - 1, w - 1}}
						if testing.Short() {
							pixels = pixels[2:3]
						}
						for pi, px := range pixels {
							for _, bit := range bits {
								site := NeuronSite{Layer: l, Batch: AllBatches, C: (l*7 + pi) % c, H: px[0], W: px[1]}
								if rig.check(t, site, BitFlip{Bit: bit}) {
									masked++
								}
								trials++
							}
						}
					}
					tensor.SetWorkers(prev)
					if masked == 0 || masked == trials {
						t.Errorf("workers %d: %d of %d trials masked; the wall must see both kinds", workers, masked, trials)
					}
				}
				if rig.region.Value() == 0 {
					t.Fatal("no forward took the region path")
				}
			})
		}
	}
}

// FuzzRegionSuffix draws a site and a bit on DenseNet-32 (float32): the
// region suffix must equal the dense forward.
func FuzzRegionSuffix(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint8(0), uint8(0), uint8(30))
	f.Add(uint16(5), uint8(3), uint8(31), uint8(31), uint8(31))
	f.Add(uint16(13), uint8(7), uint8(16), uint8(0), uint8(23))
	rig := newRegionRig(f, "densenet", false)
	layers := rig.inj.Layers()
	f.Fuzz(func(t *testing.T, layer uint16, c, y, x, bit uint8) {
		info := layers[int(layer)%len(layers)]
		site := NeuronSite{Layer: info.Index, Batch: AllBatches, C: int(c) % info.OutShape[1]}
		if len(info.OutShape) == 4 {
			site.H, site.W = int(y)%info.OutShape[2], int(x)%info.OutShape[3]
		}
		rig.check(t, site, BitFlip{Bit: int(bit) % 32})
	})
}
