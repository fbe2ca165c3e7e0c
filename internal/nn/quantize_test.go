package nn

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gofi/internal/quant"
	"gofi/internal/tensor"
)

func quantTestModel(rng *rand.Rand) *Sequential {
	return NewSequential("m",
		NewConv2d("m.conv1", rng, 2, 4, 3, Conv2dConfig{Pad: 1}),
		NewReLU("m.relu1"),
		NewConv2d("m.conv2", rng, 4, 4, 3, Conv2dConfig{Pad: 1, NoBias: true}),
		NewReLU("m.relu2"),
		NewFlatten("m.flatten"),
		NewLinear("m.fc", rng, 4*6*6, 3, true),
	)
}

func TestQuantizeModelAccuracyAndGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m := quantTestModel(rng)
	calib := tensor.RandUniform(rng, -1, 1, 4, 2, 6, 6)

	ref := Run(m, calib).Clone()
	if err := QuantizeModel(m, calib, QuantizeOptions{ActZeroPoint: true}); err != nil {
		t.Fatal(err)
	}
	if !IsQuantized(m) {
		t.Fatal("IsQuantized = false after QuantizeModel")
	}
	got := Run(m, calib)

	// The quantized forward must track float32 closely on the calibration
	// batch itself (all ranges were calibrated on exactly this input).
	var worst float64
	for i, v := range ref.Data() {
		d := math.Abs(float64(v - got.Data()[i]))
		if d > worst {
			worst = d
		}
	}
	if worst > 0.15 {
		t.Fatalf("int8 forward deviates from float32 by %g (max element)", worst)
	}

	// Every quantized layer's output must land exactly on its Out grid.
	var checked int
	Walk(m, func(path string, l Layer) {
		var qs *QuantState
		switch v := l.(type) {
		case *Conv2d:
			qs = v.Quant()
		case *Linear:
			qs = v.Quant()
		default:
			return
		}
		if qs == nil {
			t.Fatalf("layer %q missing QuantState", path)
		}
		checked++
		h := l.(interface {
			RegisterForwardHook(ForwardHook) HookHandle
		}).RegisterForwardHook(func(_ Layer, _, out *tensor.Tensor) {
			for i, v := range out.Data() {
				if rt := qs.Out.RoundTrip(v); rt != v {
					t.Fatalf("layer %q output[%d]=%g not on grid (roundtrip %g)", path, i, v, rt)
				}
			}
		})
		defer h.Remove()
	})
	if checked != 3 {
		t.Fatalf("expected 3 quantized layers, checked %d", checked)
	}
	Run(m, calib)
}

// TestQuantizedForwardSnapsInEpilogue: on the mini-DenseNet, every int8
// Conv2d and Linear forward equals the two passes it replaced — the
// tensor call with OutScale 0, then quant.QuantizeTensor onto qs.Out — bit for
// bit, with zero-point inputs, and at spatial sizes whose channel rows
// are and are not multiples of the 16-lane kernels.
func TestQuantizedForwardSnapsInEpilogue(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, size := range []int{8, 9} {
		net := denseFixture(83)
		if err := QuantizeModel(net, tensor.RandUniform(rng, -2, 2, 4, 3, size, size), QuantizeOptions{ActZeroPoint: true}); err != nil {
			t.Fatal(err)
		}
		var checked, zps int
		Walk(net, func(path string, l Layer) {
			// fold runs the layer's tensor call unsnapped: OutScale 0.
			var fold func(dst, in *tensor.Tensor)
			var qs *QuantState
			var base *Base
			switch v := l.(type) {
			case *Conv2d:
				qs, base = v.qstate, &v.Base
				fold = func(dst, in *tensor.Tensor) {
					qp := qs.params(nil) // the fixture's convs are bias-free
					qp.OutScale = 0
					tensor.Conv2dInt8Into(dst, in, qs.WCodes, v.weight.Data.Shape(), qp, v.Spec)
				}
			case *Linear:
				qs, base = v.qstate, &v.Base
				fold = func(dst, in *tensor.Tensor) {
					qp := qs.params(v.bias.Data.Data())
					qp.OutScale = 0
					tensor.LinearInt8Into(dst, in, qs.WCodes, qp)
				}
			default:
				return
			}
			if qs.In.ZP != 0 {
				zps++
			}
			base.RegisterForwardHook(func(_ Layer, in, out *tensor.Tensor) {
				checked++
				ref := tensor.New(out.Shape()...)
				fold(ref, in)
				quant.QuantizeTensor(ref, qs.Out)
				for i, v := range ref.Data() {
					if got := out.Data()[i]; math.Float32bits(got) != math.Float32bits(v) {
						t.Fatalf("size %d, %s: output[%d] = %#08x fused, %#08x in two passes", size, path, i, math.Float32bits(got), math.Float32bits(v))
					}
				}
			})
		})
		Run(net, tensor.RandUniform(rng, -2, 2, 2, 3, size, size))
		if checked != 6 || zps == 0 {
			t.Fatalf("size %d: checked %d quantized layers (want 6), %d with a zero-point (want > 0)", size, checked, zps)
		}
	}
}

func TestQuantizeModelDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	m := quantTestModel(rng)
	calib := tensor.RandUniform(rng, -1, 1, 4, 2, 6, 6)
	if err := QuantizeModel(m, calib, QuantizeOptions{}); err != nil {
		t.Fatal(err)
	}
	old := tensor.SetWorkers(1)
	ref := Run(m, calib).Clone()
	for _, w := range []int{2, 8} {
		tensor.SetWorkers(w)
		if !ref.Equal(Run(m, calib)) {
			t.Fatalf("int8 forward differs at %d workers", w)
		}
	}
	tensor.SetWorkers(old)
}

func TestShareQuantSharesPlanPointers(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	src := quantTestModel(rng)
	dst := quantTestModel(rand.New(rand.NewSource(99)))
	calib := tensor.RandUniform(rng, -1, 1, 2, 2, 6, 6)

	if err := ShareQuant(dst, src); err == nil {
		t.Fatal("ShareQuant before QuantizeModel should fail")
	}
	if err := QuantizeModel(src, calib, QuantizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := ShareParams(dst, src); err != nil {
		t.Fatal(err)
	}
	if err := ShareQuant(dst, src); err != nil {
		t.Fatal(err)
	}
	var srcConv, dstConv *Conv2d
	Walk(src, func(_ string, l Layer) {
		if c, ok := l.(*Conv2d); ok && srcConv == nil {
			srcConv = c
		}
	})
	Walk(dst, func(_ string, l Layer) {
		if c, ok := l.(*Conv2d); ok && dstConv == nil {
			dstConv = c
		}
	})
	if srcConv.Quant() != dstConv.Quant() {
		t.Fatal("ShareQuant must share QuantState pointers")
	}
	if !Run(src, calib).Equal(Run(dst, calib)) {
		t.Fatal("shared-plan replica disagrees with source")
	}
}

func TestQuantizeModelNonFiniteWeightError(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	m := quantTestModel(rng)
	var conv *Conv2d
	Walk(m, func(_ string, l Layer) {
		if c, ok := l.(*Conv2d); ok && conv == nil {
			conv = c
		}
	})
	conv.Weight().Data.Data()[0] = float32(math.NaN())
	calib := tensor.RandUniform(rng, -1, 1, 2, 2, 6, 6)
	err := QuantizeModel(m, calib, QuantizeOptions{})
	if err == nil {
		t.Fatal("expected calibration error for NaN weight")
	}
	if !strings.Contains(err.Error(), "conv1") {
		t.Fatalf("error should name the offending layer, got: %v", err)
	}
}

func TestDequantizeModelRestoresFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	m := quantTestModel(rng)
	calib := tensor.RandUniform(rng, -1, 1, 2, 2, 6, 6)
	ref := Run(m, calib).Clone()
	if err := QuantizeModel(m, calib, QuantizeOptions{}); err != nil {
		t.Fatal(err)
	}
	DequantizeModel(m)
	if IsQuantized(m) {
		t.Fatal("IsQuantized after DequantizeModel")
	}
	if !ref.Equal(Run(m, calib)) {
		t.Fatal("float32 forward changed after quantize/dequantize cycle")
	}
}

func TestSetCodeKeepsRowSumAndPanels(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	m := quantTestModel(rng)
	calib := tensor.RandUniform(rng, -1, 1, 2, 2, 6, 6)
	if err := QuantizeModel(m, calib, QuantizeOptions{}); err != nil {
		t.Fatal(err)
	}
	// Every quantized layer carries panels, a Linear's one group of them.
	Walk(m, func(path string, l Layer) {
		var qs *QuantState
		groups := 1
		switch v := l.(type) {
		case *Conv2d:
			qs, groups = v.Quant(), v.Spec.Canon().Groups
		case *Linear:
			qs = v.Quant()
		default:
			return
		}
		per := len(qs.WCodes) / len(qs.WScales)
		want := append([]int32{}, qs.RowSums...)
		qs.SetCode(3, qs.WCodes[3]+5)
		qs.SetCode(per+per-1, qs.WCodes[per+per-1]-7) // channel 1's last code
		if qs.RowSums[0] != want[0]+5 || qs.RowSums[1] != want[1]-7 {
			t.Fatalf("%s: RowSums[:2] = %v, want [%d %d]", path, qs.RowSums[:2], want[0]+5, want[1]-7)
		}
		if fresh := tensor.PackPanelsI8(qs.WCodes, len(qs.WScales), groups); qs.Panels == nil || !reflect.DeepEqual(qs.Panels, fresh) {
			t.Fatalf("%s: panels after SetCode differ from a fresh pack of the codes", path)
		}
	})
}
