package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/tensor"
)

// residualTestModel puts two of its convs inside a Residual so the chain
// planner must treat the whole block as one atomic node.
func residualTestModel(rng *rand.Rand) nn.Layer {
	return nn.NewSequential("resnet",
		nn.NewConv2d("stem", rng, 3, 4, 3, nn.Conv2dConfig{Pad: 1}),
		nn.NewReLU("relu0"),
		nn.NewResidual("block",
			nn.NewSequential("body",
				nn.NewConv2d("c1", rng, 4, 4, 3, nn.Conv2dConfig{Pad: 1}),
				nn.NewReLU("r1"),
				nn.NewConv2d("c2", rng, 4, 4, 3, nn.Conv2dConfig{Pad: 1}),
			),
			nil,
			nn.NewReLU("post"),
		),
		nn.NewConv2d("head", rng, 4, 4, 3, nn.Conv2dConfig{Pad: 1}),
		nn.NewGlobalAvgPool2d("gap"),
		nn.NewFlatten("fl"),
		nn.NewLinear("fc", rng, 4, 5, true),
	)
}

// allErrorModels is one instance of every error model, stochastic and
// deterministic; SetRand with equal seeds keeps stochastic draws aligned
// between the compared passes.
func allErrorModels() map[string]ErrorModel {
	return map[string]ErrorModel{
		"random":   DefaultRandomValue(),
		"zero":     Zero{},
		"set":      SetValue{V: 42.5},
		"bitflip":  BitFlip{Bit: RandomBit},
		"bitflip7": BitFlip{Bit: 7},
		"multibit": MultiBitFlip{N: 2},
		"gauss":    GaussianNoise{Std: 1},
		"gain":     Gain{Factor: 2},
		"func":     Func{Label: "negate", Fn: func(v float32, _ PerturbContext) float32 { return -v }},
	}
}

func requireBitIdentical(t testing.TB, got, want *tensor.Tensor, ctx string) {
	t.Helper()
	if got == nil || got.Len() != want.Len() {
		t.Fatalf("%s: got %v, want %d elements", ctx, got, want.Len())
	}
	for i := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(want.Data()[i]) {
			t.Fatalf("%s: element %d = %x, full forward %x (not bit-identical)",
				ctx, i, math.Float32bits(got.Data()[i]), math.Float32bits(want.Data()[i]))
		}
	}
}

// TestPrefixForwardBitIdentical is the differential soundness test: for
// both test topologies, every hooked layer, and every error model, an
// armed forward through the PrefixRunner — cold store (miss) and warm
// store (hit) — must be bit-identical to the full forward pass.
func TestPrefixForwardBitIdentical(t *testing.T) {
	topologies := map[string]func(*rand.Rand) nn.Layer{
		"lenet":    testModel,
		"residual": residualTestModel,
	}
	for topoName, build := range topologies {
		t.Run(topoName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			model := build(rng)
			inj, err := New(model, Config{Height: 16, Width: 16, IncludeLinear: true})
			if err != nil {
				t.Fatal(err)
			}
			runner, err := NewPrefixRunner(inj, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.RandUniform(rng, -1, 1, 1, 3, 16, 16)
			for emName, em := range allErrorModels() {
				for layer := range inj.Layers() {
					site := NeuronSite{Layer: layer, Batch: AllBatches, C: 0, H: 0, W: 0}
					arm := func(seed int64) {
						inj.Reset()
						inj.SetRand(rand.New(rand.NewSource(seed)))
						if err := inj.DeclareNeuronFI(em, site); err != nil {
							t.Fatal(err)
						}
					}
					arm(99)
					want := nn.Run(model, x).Clone()
					// Cold pass: the store may or may not hold this cut yet.
					arm(99)
					got, err := runner.Forward(0, x)
					if err != nil {
						t.Fatalf("%s layer %d: %v", emName, layer, err)
					}
					requireBitIdentical(t, got, want, emName+" cold")
					// Warm pass: same cut again, now guaranteed through Get.
					arm(99)
					got, err = runner.Forward(0, x)
					if err != nil {
						t.Fatal(err)
					}
					requireBitIdentical(t, got, want, emName+" warm")
				}
			}
		})
	}
}

// TestPrefixForwardDisarmed checks the nothing-armed path: the cut is the
// chain end, so the "boundary" is the cached model output itself.
func TestPrefixForwardDisarmed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	model := testModel(rng)
	inj, err := New(model, Config{Height: 16, Width: 16})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewPrefixRunner(inj, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandUniform(rng, -1, 1, 1, 3, 16, 16)
	inj.Reset()
	want := nn.Run(model, x).Clone()
	for pass := 0; pass < 2; pass++ {
		got, err := runner.Forward(0, x)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, got, want, "disarmed")
	}
	if runner.Store().Len() == 0 {
		t.Fatal("disarmed forward should checkpoint the full output")
	}
}

// weightWallCase is one (topology, backend) cell of the weight-fault
// differential wall: a fresh model and injector, f32 or quantized with
// weight faults landing in stored int8 codes.
type weightWallCase struct {
	name  string
	build func(*rand.Rand) nn.Layer
	int8  bool
}

func (c weightWallCase) injector(t *testing.T) (*Injector, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	model := c.build(rng)
	x := tensor.RandUniform(rng, -1, 1, 1, 3, 16, 16)
	cfg := Config{Height: 16, Width: 16, IncludeLinear: true}
	if c.int8 {
		if err := nn.QuantizeModel(model, tensor.RandUniform(rng, -1, 1, 2, 3, 16, 16), nn.QuantizeOptions{}); err != nil {
			t.Fatal(err)
		}
		cfg.DType = INT8
	}
	inj, err := New(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.int8 {
		if err := inj.UseQuantizedModel(); err != nil {
			t.Fatal(err)
		}
	}
	return inj, x
}

// TestPrefixForwardWeightBitIdentical is the differential soundness wall
// for weight faults, the twin of TestPrefixForwardBitIdentical: a weight
// fault in every hooked layer, under every error model, on chain and
// residual topologies, in float32 tensors and in stored int8 codes. The
// logits resumed from a checkpoint must be Float32bits-equal to nn.Run on
// the mutated replica, from a cold store (the prefix is walked while the
// weight is mutated) and from one warmed by the clean pass. The
// checkpoints a cold walk writes must be the clean activations, and only
// faults whose layer sits in chain node 0 may run full-length.
func TestPrefixForwardWeightBitIdentical(t *testing.T) {
	cases := []weightWallCase{
		{"lenet/f32", testModel, false},
		{"residual/f32", residualTestModel, false},
		{"lenet/int8", testModel, true},
		{"residual/int8", residualTestModel, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inj, x := c.injector(t)
			model := inj.Model()
			plan, err := inj.BuildPrefixPlan()
			if err != nil {
				t.Fatal(err)
			}
			// Clean boundaries, computed before anything is ever armed.
			clean := make([]*tensor.Tensor, plan.Chain().Len()+1)
			for cut := 1; cut < len(clean); cut++ {
				b, err := plan.Chain().ForwardTo(cut, x)
				if err != nil {
					t.Fatal(err)
				}
				clean[cut] = b.Clone()
			}
			warm, err := NewPrefixRunner(inj, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Warm(0, x); err != nil {
				t.Fatal(err)
			}
			fallbacks := obs.NewRegistry().Counter("fallbacks")
			warm.SetMetrics(PrefixMetrics{Fallbacks: fallbacks})
			wantFallbacks := int64(0)

			for emName, em := range allErrorModels() {
				for layer, li := range inj.Layers() {
					// The last weight of the layer: a different output channel
					// than element 0, so the wall does not lean on one corner.
					idx := make([]int, len(li.Weight))
					for d := range idx {
						idx[d] = li.Weight[d] - 1
					}
					site := WeightSite{Layer: layer, Idx: idx}
					ctx := fmt.Sprintf("%s layer %d", emName, layer)
					arm := func() {
						inj.Reset()
						inj.SetRand(rand.New(rand.NewSource(99)))
						if err := inj.DeclareWeightFI(em, site); err != nil {
							t.Fatalf("%s: %v", ctx, err)
						}
					}
					arm()
					if got, ok := inj.MinArmedLayer(); !ok || got != layer {
						t.Fatalf("%s: MinArmedLayer = (%d,%v), want (%d,true)", ctx, got, ok, layer)
					}
					want := nn.Run(model, x).Clone()

					// Cold store: every boundary below the cut is computed
					// on the replica while its weight is mutated.
					cold, err := NewPrefixRunner(inj, 1<<20)
					if err != nil {
						t.Fatal(err)
					}
					arm()
					got, err := cold.Forward(0, x)
					if err != nil {
						t.Fatalf("%s cold: %v", ctx, err)
					}
					requireBitIdentical(t, got, want, ctx+" cold")
					cut := plan.CutFor(layer)
					if cold.Store().Len() != cut {
						t.Fatalf("%s: cold walk stored %d checkpoints, want one per node below cut %d", ctx, cold.Store().Len(), cut)
					}
					for n := 1; n <= cut; n++ {
						snap, _, _ := cold.Store().Get(0, n)
						requireBitIdentical(t, snap, clean[n], fmt.Sprintf("%s: checkpoint %d written under the fault", ctx, n))
					}

					// Warm store: resumed from the clean pass's checkpoint.
					arm()
					got, err = warm.Forward(0, x)
					if err != nil {
						t.Fatalf("%s warm: %v", ctx, err)
					}
					requireBitIdentical(t, got, want, ctx+" warm")
					if cut == 0 {
						wantFallbacks++
					}
				}
			}
			inj.Reset()
			if wantFallbacks == 0 || fallbacks.Value() != wantFallbacks {
				t.Fatalf("fallbacks = %d, want %d: exactly the faults in chain node 0", fallbacks.Value(), wantFallbacks)
			}
		})
	}
}

// tiedTestModel has two convs reading ONE weight tensor (tied weights),
// with an untied conv between them.
func tiedTestModel(rng *rand.Rand) nn.Layer {
	first := nn.NewConv2d("tied1", rng, 4, 4, 3, nn.Conv2dConfig{Pad: 1})
	second := nn.NewConv2d("tied2", rng, 4, 4, 3, nn.Conv2dConfig{Pad: 1})
	second.Weight().Data = first.Weight().Data
	return nn.NewSequential("tied",
		nn.NewConv2d("stem", rng, 3, 4, 3, nn.Conv2dConfig{Pad: 1}),
		nn.NewReLU("r0"),
		first,
		nn.NewReLU("r1"),
		nn.NewConv2d("mid", rng, 4, 4, 3, nn.Conv2dConfig{Pad: 1}),
		nn.NewReLU("r2"),
		second,
		nn.NewGlobalAvgPool2d("gap"),
		nn.NewFlatten("fl"),
		nn.NewLinear("fc", rng, 4, 5, true),
	)
}

// TestPrefixForwardTiedWeights: a weight fault declared on the LATER of
// two layers sharing one weight tensor is read by the earlier one too, so
// the cut is the earlier layer's chain node. Resuming at the declared
// layer's own node — what an alias-blind gate would do — is shown to give
// different logits, so the test cannot pass by accident.
func TestPrefixForwardTiedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	model := tiedTestModel(rng)
	inj, err := New(model, Config{Height: 16, Width: 16})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandUniform(rng, -1, 1, 1, 3, 16, 16)
	runner, err := NewPrefixRunner(inj, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Warm(0, x); err != nil {
		t.Fatal(err)
	}
	const tied1, mid, tied2 = 1, 2, 3 // hooked-layer indices (stem is 0)
	plan := runner.Plan()

	if err := inj.DeclareWeightFI(SetValue{V: 3}, WeightSite{Layer: tied2, Idx: []int{0, 0, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	if got, ok := inj.MinArmedLayer(); !ok || got != tied1 {
		t.Fatalf("MinArmedLayer = (%d,%v) for a fault declared on layer %d, want the earliest reader %d", got, ok, tied2, tied1)
	}
	want := nn.Run(model, x).Clone()
	got, err := runner.Forward(0, x)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want, "tied weights")

	stale, _, ok := runner.Store().Get(0, plan.CutFor(tied2))
	if !ok {
		t.Fatal("warmed store lost the declared layer's boundary")
	}
	wrong, err := plan.Chain().ForwardFrom(plan.CutFor(tied2), stale)
	if err != nil {
		t.Fatal(err)
	}
	if wrong.Equal(want) {
		t.Fatal("resuming at the declared layer's node matched the full forward: the fixture does not distinguish the two cuts")
	}

	// An untied layer between the two still cuts at its own node, and a
	// second fault on top of it lowers the cut to the earliest reader.
	inj.Reset()
	if err := inj.DeclareWeightFI(SetValue{V: 3}, WeightSite{Layer: mid, Idx: []int{0, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := inj.MinArmedLayer(); got != mid {
		t.Fatalf("MinArmedLayer = %d for an untied layer, want its own index %d", got, mid)
	}
	if err := inj.DeclareWeightFI(Zero{}, WeightSite{Layer: tied2, Idx: []int{1, 1, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := inj.MinArmedLayer(); got != tied1 {
		t.Fatalf("MinArmedLayer = %d with faults on layers %d and %d, want %d", got, mid, tied2, tied1)
	}
	want = nn.Run(model, x).Clone()
	if got, err = runner.Forward(0, x); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want, "tied + untied weight faults")
	inj.Reset()
	if got, _ := inj.MinArmedLayer(); got != len(inj.Layers()) {
		t.Fatalf("MinArmedLayer = %d after Reset, want %d", got, len(inj.Layers()))
	}
}

// TestWeightStorageShared: sharing is observed from the replicas' weight
// memory — ShareParams / ShareQuant replicas share, deep copies do not,
// and weights tied inside ONE model are not sharing between injectors.
func TestWeightStorageShared(t *testing.T) {
	build := func(share func(dst, src nn.Layer) error, master nn.Layer) *Injector {
		t.Helper()
		replica := testModel(rand.New(rand.NewSource(18)))
		if err := share(replica, master); err != nil {
			t.Fatal(err)
		}
		inj, err := New(replica, Config{Height: 16, Width: 16})
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	master := testModel(rand.New(rand.NewSource(18)))
	a, b := build(nn.ShareParams, master), build(nn.ShareParams, master)
	c, d := build(nn.CopyParams, master), build(nn.CopyParams, master)
	if !WeightStorageShared(a, b) {
		t.Fatal("ShareParams replicas must report shared weight storage")
	}
	if WeightStorageShared(c, d) {
		t.Fatal("CopyParams replicas must not report shared weight storage")
	}
	if !WeightStorageShared(c, a, d, b) {
		t.Fatal("one sharing pair among isolated replicas must be found")
	}

	tied, err := New(tiedTestModel(rand.New(rand.NewSource(18))), Config{Height: 16, Width: 16})
	if err != nil {
		t.Fatal(err)
	}
	if WeightStorageShared(tied) || WeightStorageShared(tied, c) {
		t.Fatal("weights tied within one model are not storage shared between injectors")
	}

	// Quantized injectors mutate the int8 plan, so that is what counts.
	quantized := func(plan func(replica nn.Layer) error) *Injector {
		t.Helper()
		replica := testModel(rand.New(rand.NewSource(18)))
		if err := nn.ShareParams(replica, master); err != nil {
			t.Fatal(err)
		}
		if err := plan(replica); err != nil {
			t.Fatal(err)
		}
		inj, err := New(replica, Config{Height: 16, Width: 16, DType: INT8})
		if err != nil {
			t.Fatal(err)
		}
		if err := inj.UseQuantizedModel(); err != nil {
			t.Fatal(err)
		}
		return inj
	}
	calib := tensor.RandUniform(rand.New(rand.NewSource(19)), -1, 1, 2, 3, 16, 16)
	if err := nn.QuantizeModel(master, calib, nn.QuantizeOptions{}); err != nil {
		t.Fatal(err)
	}
	sharePlan := func(r nn.Layer) error { return nn.ShareQuant(r, master) }
	ownPlan := func(r nn.Layer) error { return nn.QuantizeModel(r, calib, nn.QuantizeOptions{}) }
	if !WeightStorageShared(quantized(sharePlan), quantized(sharePlan)) {
		t.Fatal("ShareQuant replicas must report shared weight storage")
	}
	if WeightStorageShared(quantized(ownPlan), quantized(ownPlan)) {
		t.Fatal("replicas with private int8 plans share no mutable weight storage, shared float32 masters or not")
	}
}

func TestMinArmedLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	model := testModel(rng)
	inj, err := New(model, Config{Height: 16, Width: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := inj.MinArmedLayer(); !ok || got != len(inj.Layers()) {
		t.Fatalf("disarmed MinArmedLayer = (%d,%v), want (%d,true)", got, ok, len(inj.Layers()))
	}
	if err := inj.DeclareNeuronFI(Zero{}, NeuronSite{Layer: 2, Batch: AllBatches}); err != nil {
		t.Fatal(err)
	}
	if got, ok := inj.MinArmedLayer(); !ok || got != 2 {
		t.Fatalf("MinArmedLayer = (%d,%v), want (2,true)", got, ok)
	}
	if err := inj.DeclareNeuronFI(Zero{}, NeuronSite{Layer: 1, Batch: AllBatches}); err != nil {
		t.Fatal(err)
	}
	if got, _ := inj.MinArmedLayer(); got != 1 {
		t.Fatalf("multi-site MinArmedLayer = %d, want the earliest (1)", got)
	}
	inj.Reset()
}

func TestPrefixPlanCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	model := residualTestModel(rng)
	inj, err := New(model, Config{Height: 16, Width: 16, IncludeLinear: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := inj.BuildPrefixPlan()
	if err != nil {
		t.Fatal(err)
	}
	// Hooked layers: stem, c1, c2 (both inside the residual node), head, fc.
	// Chain: stem relu0 block head gap fl fc = 7 nodes.
	if plan.Chain().Len() != 7 {
		t.Fatalf("chain len %d, want 7", plan.Chain().Len())
	}
	wantCuts := []int{0, 2, 2, 3, 6}
	for l, want := range wantCuts {
		if got := plan.CutFor(l); got != want {
			t.Fatalf("CutFor(%d) = %d, want %d", l, got, want)
		}
	}
	if got := plan.CutFor(len(wantCuts)); got != plan.Chain().Len() {
		t.Fatalf("CutFor(len) = %d, want chain end %d", got, plan.Chain().Len())
	}
	if got := plan.CutFor(-1); got != 0 {
		t.Fatalf("CutFor(-1) = %d, want 0", got)
	}
}

// TestNodeCosts: after a Warm pass every chain node has an observed
// cost; before any walk there is nothing to report.
func TestNodeCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	model := testModel(rng)
	inj, err := New(model, Config{Height: 16, Width: 16})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewPrefixRunner(inj, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := runner.NodeCostsNS(); got != nil {
		t.Fatalf("NodeCostsNS before any walk = %v, want nil", got)
	}
	x := tensor.RandUniform(rng, -1, 1, 1, 3, 16, 16)
	inj.Reset()
	if _, err := runner.Warm(0, x); err != nil {
		t.Fatal(err)
	}
	costs := runner.NodeCostsNS()
	chainLen := runner.Plan().Chain().Len()
	if len(costs) != chainLen {
		t.Fatalf("NodeCostsNS len %d, want chain len %d", len(costs), chainLen)
	}
	for n, c := range costs {
		if c <= 0 {
			t.Fatalf("node %d cost = %d after Warm, want > 0", n, c)
		}
	}
}
