package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gofi/internal/fpbits"
	"gofi/internal/nn"
	"gofi/internal/quant"
	"gofi/internal/tensor"
)

// quantizedInjector builds the standard test model, quantizes it, and
// binds an INT8 injector to the quantized plan.
func quantizedInjector(t *testing.T, includeLinear bool) (*Injector, nn.Layer, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	model := testModel(rng)
	calib := tensor.RandUniform(rng, -1, 1, 2, 3, 16, 16)
	if err := nn.QuantizeModel(model, calib, nn.QuantizeOptions{}); err != nil {
		t.Fatal(err)
	}
	inj, err := New(model, Config{Batch: 2, Height: 16, Width: 16, DType: INT8, IncludeLinear: includeLinear, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.UseQuantizedModel(); err != nil {
		t.Fatal(err)
	}
	return inj, model, calib
}

func TestUseQuantizedModelAdoptsScales(t *testing.T) {
	inj, model, _ := quantizedInjector(t, true)
	if !inj.Quantized() {
		t.Fatal("Quantized() = false")
	}
	var outs []quant.Scale
	nn.Walk(model, func(_ string, l nn.Layer) {
		switch v := l.(type) {
		case *nn.Conv2d:
			outs = append(outs, v.Quant().Out)
		case *nn.Linear:
			outs = append(outs, v.Quant().Out)
		}
	})
	got := inj.Scales()
	if len(got) != len(outs) {
		t.Fatalf("scale count %d != quantized layer count %d", len(got), len(outs))
	}
	for i, s := range got {
		if s != outs[i] {
			t.Fatalf("scale[%d] = %v, want layer Out %v", i, s, outs[i])
		}
	}
}

func TestUseQuantizedModelRequirements(t *testing.T) {
	// Wrong dtype.
	inj, _ := newTestInjector(t, Config{Height: 16, Width: 16})
	if err := inj.UseQuantizedModel(); err == nil {
		t.Fatal("expected error on FP32 injector")
	}
	// INT8 but unquantized model.
	inj2, _ := newTestInjector(t, Config{Height: 16, Width: 16, DType: INT8})
	if err := inj2.UseQuantizedModel(); err == nil {
		t.Fatal("expected error when model has no QuantState")
	}
}

func TestQuantizedNeuronBitFlipIsStoredCodeSemantics(t *testing.T) {
	inj, model, calib := quantizedInjector(t, false)
	// Flip bit 6 of one neuron; the output is on-grid, so the flip must
	// equal flipping the stored int8 code under the layer's Out scale.
	site := NeuronSite{Layer: 1, Batch: 0, C: 2, H: 1, W: 1}
	if err := inj.DeclareNeuronFI(BitFlip{Bit: 6}, site); err != nil {
		t.Fatal(err)
	}
	inj.EnableTrace(true)
	nn.Run(model, calib)
	tr := inj.Trace()
	if len(tr) != 1 {
		t.Fatalf("expected 1 injection record, got %d", len(tr))
	}
	s := inj.Scales()[1]
	if want := s.FlipBit(tr[0].Old, 6); tr[0].New != want {
		t.Fatalf("flip produced %g, want stored-code flip %g (old %g, scale %g)", tr[0].New, want, tr[0].Old, float32(s))
	}
	// And the pre-fault value is exactly on the layer's grid.
	if rt := s.RoundTrip(tr[0].Old); rt != tr[0].Old {
		t.Fatalf("pre-fault activation %g not on the calibrated grid (roundtrip %g)", tr[0].Old, rt)
	}
}

func TestQuantizedWeightFaultMutatesCodesAndRestores(t *testing.T) {
	inj, model, calib := quantizedInjector(t, false)
	qs := inj.hookables()[0].quant()
	wantCodes := append([]int8{}, qs.WCodes...)
	wantSums := append([]int32{}, qs.RowSums...)
	master := append([]float32{}, inj.hookables()[0].params.Data.Data()...)
	clean := nn.Run(model, calib).Clone()

	site := WeightSite{Layer: 0, Idx: []int{1, 0, 0, 0}}
	if err := inj.DeclareWeightFI(BitFlip{Bit: 6}, site); err != nil {
		t.Fatal(err)
	}
	per := len(qs.WCodes) / len(qs.WScales)
	off := inj.hookables()[0].params.Data.Offset(1, 0, 0, 0)
	if qs.WCodes[off] == wantCodes[off] {
		t.Fatal("weight code unchanged by bit-6 flip")
	}
	var sum int32
	for _, c := range qs.WCodes[per : 2*per] {
		sum += int32(c)
	}
	if qs.RowSums[1] != sum {
		t.Fatalf("RowSums[1] = %d, out of sync with codes (want %d)", qs.RowSums[1], sum)
	}
	// The float32 master weights must be untouched.
	for i, v := range inj.hookables()[0].params.Data.Data() {
		if v != master[i] {
			t.Fatalf("float32 master weight %d changed", i)
		}
	}
	// The fault must actually change the forward pass.
	if clean.Equal(nn.Run(model, calib)) {
		t.Fatal("quantized weight fault did not affect inference")
	}

	inj.Reset()
	for i := range wantCodes {
		if qs.WCodes[i] != wantCodes[i] {
			t.Fatalf("code %d not restored", i)
		}
	}
	for i := range wantSums {
		if qs.RowSums[i] != wantSums[i] {
			t.Fatalf("row sum %d not restored", i)
		}
	}
	if !clean.Equal(nn.Run(model, calib)) {
		t.Fatal("forward pass differs after Reset")
	}
}

// TestQuantizedWeightFaultPanelsLockstep: every quantized layer's packed
// panels, each conv's and the Linear's, equal a fresh pack of its codes
// after weight faults are applied (stacked on one code, on an odd-kdim
// layer's last tap, on the Linear) and again after they are restored.
func TestQuantizedWeightFaultPanelsLockstep(t *testing.T) {
	inj, model, calib := quantizedInjector(t, true)
	clean := nn.Run(model, calib).Clone()
	requireFresh := func(when string) {
		t.Helper()
		for i, h := range inj.hookables() {
			groups := 1
			if conv, ok := h.layer.(*nn.Conv2d); ok {
				groups = conv.Spec.Canon().Groups
			}
			qs := h.quant()
			fresh := tensor.PackPanelsI8(qs.WCodes, len(qs.WScales), groups)
			if qs.Panels == nil || !reflect.DeepEqual(qs.Panels, fresh) {
				t.Fatalf("%s: layer %d's panels differ from a fresh pack of its codes", when, i)
			}
		}
	}
	requireFresh("after quantization")
	sites := []WeightSite{
		{Layer: 0, Idx: []int{1, 0, 0, 0}},
		{Layer: 0, Idx: []int{3, 2, 2, 2}}, // conv1's kdim is 27: the last tap
		{Layer: 1, Idx: []int{5, 3, 1, 1}},
		{Layer: 2, Idx: []int{7, 7, 2, 2}},
		{Layer: 3, Idx: []int{4, 7}},
	}
	if err := inj.DeclareWeightFI(BitFlip{Bit: 7}, sites...); err != nil {
		t.Fatal(err)
	}
	if err := inj.DeclareWeightFI(BitFlip{Bit: 6}, sites[2]); err != nil {
		t.Fatal(err)
	}
	requireFresh("after apply")
	if clean.Equal(nn.Run(model, calib)) {
		t.Fatal("weight faults did not affect inference")
	}
	inj.Reset()
	requireFresh("after restore")
	if !clean.Equal(nn.Run(model, calib)) {
		t.Fatal("forward pass differs after Reset")
	}
}

func TestStuckAtFP32(t *testing.T) {
	ctx := PerturbContext{DType: FP32, Rand: rand.New(rand.NewSource(1))}
	v := float32(1.5)
	// Sign bit stuck at 1 → negative; stuck at 0 on a negative → positive.
	if got := (StuckAt{Bit: 31, One: true}).Perturb(v, ctx); got != -1.5 {
		t.Fatalf("stuck1(31) on 1.5 = %g, want -1.5", got)
	}
	if got := (StuckAt{Bit: 31}).Perturb(-1.5, ctx); got != 1.5 {
		t.Fatalf("stuck0(31) on -1.5 = %g, want 1.5", got)
	}
	// Idempotent: forcing a bit already at the target polarity is a no-op.
	if got := (StuckAt{Bit: 31}).Perturb(v, ctx); got != v {
		t.Fatalf("stuck0(31) on 1.5 = %g, want unchanged", got)
	}
	// Cross-check against raw bit manipulation on a mantissa bit.
	want := fpbits.FP32FromBits(fpbits.FP32Bits(v) | 1<<20)
	if got := (StuckAt{Bit: 20, One: true}).Perturb(v, ctx); got != want {
		t.Fatalf("stuck1(20) = %g, want %g", got, want)
	}
}

func TestStuckAtFP16AndINT8(t *testing.T) {
	ctx := PerturbContext{DType: FP16, Rand: rand.New(rand.NewSource(1))}
	v := float32(0.5)
	want := fpbits.FP16BitsToFP32(fpbits.FP32ToFP16Bits(v) | 1<<15)
	if got := (StuckAt{Bit: 15, One: true}).Perturb(v, ctx); got != want {
		t.Fatalf("fp16 stuck1(15) = %g, want %g", got, want)
	}
	s := quant.Scale(0.01)
	ctx = PerturbContext{DType: INT8, Scale: s, Rand: rand.New(rand.NewSource(1))}
	if got, want := (StuckAt{Bit: 7, One: true}).Perturb(0.5, ctx), s.StuckAt(0.5, 7, true); got != want {
		t.Fatalf("int8 stuck1(7) = %g, want %g", got, want)
	}
}

func TestStuckAtRandomBitAndSaturation(t *testing.T) {
	ctx := PerturbContext{DType: FP32, Rand: rand.New(rand.NewSource(9))}
	m := StuckAt{Bit: RandomBit, One: true}
	// A random stuck-at-1 leaves the value with at least one forced bit;
	// over many draws some must differ from the original.
	var changed bool
	for i := 0; i < 64; i++ {
		if m.Perturb(1.0, ctx) != 1.0 {
			changed = true
		}
	}
	if !changed {
		t.Fatal("random stuck-at-1 never changed 1.0 in 64 draws")
	}
	// Out-of-range fixed bit saturates to the top bit instead of panicking.
	if got := (StuckAt{Bit: 99, One: true}).Perturb(1.0, ctx); got != -1.0 {
		t.Fatalf("saturated stuck1 = %g, want -1 (sign bit)", got)
	}
	if (StuckAt{Bit: 3, One: true}).Name() != "stuck1(3)" || (StuckAt{Bit: RandomBit}).Name() != "stuck0(random)" {
		t.Fatal("StuckAt.Name format changed")
	}
	if !math.Signbit(float64((StuckAt{Bit: 31, One: true}).Perturb(0, ctx))) {
		t.Fatal("stuck1(31) on +0 should produce -0")
	}
}

func TestStuckAtNeedsCalibrationOnINT8(t *testing.T) {
	inj, _ := newTestInjector(t, Config{Height: 16, Width: 16, DType: INT8})
	err := inj.DeclareNeuronFI(StuckAt{Bit: 7, One: true}, NeuronSite{Layer: 0, Batch: 0, C: 0, H: 0, W: 0})
	if err == nil {
		t.Fatal("StuckAt on uncalibrated INT8 injector should fail")
	}
}
