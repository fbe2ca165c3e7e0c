package nn

import (
	"math"
	"math/rand"
	"testing"

	"gofi/internal/tensor"
)

// gradCheck numerically validates dL/dx and all parameter gradients of a
// layer stack for L = sum(forward(x)).
func gradCheck(t *testing.T, net Layer, x *tensor.Tensor, eps, tol float32) {
	t.Helper()
	out := Run(net, x)
	ZeroGrads(net)
	gx := RunBackward(net, tensor.Ones(out.Shape()...))

	lossAt := func() float32 {
		return float32(Run(net, x).Sum())
	}
	// Input gradient.
	for i := 0; i < x.Len(); i++ {
		orig := x.AtFlat(i)
		x.SetFlat(i, orig+eps)
		up := lossAt()
		x.SetFlat(i, orig-eps)
		down := lossAt()
		x.SetFlat(i, orig)
		numeric := (up - down) / (2 * eps)
		d := numeric - gx.AtFlat(i)
		if d < 0 {
			d = -d
		}
		if d > tol {
			t.Fatalf("input grad[%d]: analytic %g vs numeric %g", i, gx.AtFlat(i), numeric)
		}
	}
	// Parameter gradients.
	for _, p := range AllParams(net) {
		for i := 0; i < p.Data.Len(); i++ {
			orig := p.Data.AtFlat(i)
			p.Data.SetFlat(i, orig+eps)
			up := lossAt()
			p.Data.SetFlat(i, orig-eps)
			down := lossAt()
			p.Data.SetFlat(i, orig)
			numeric := (up - down) / (2 * eps)
			d := numeric - p.Grad.AtFlat(i)
			if d < 0 {
				d = -d
			}
			if d > tol {
				t.Fatalf("%s grad[%d]: analytic %g vs numeric %g", p.Name, i, p.Grad.AtFlat(i), numeric)
			}
		}
	}
}

func TestLinearForwardHandComputed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("fc", rng, 2, 2, true)
	l.Weight().Data.CopyFrom(tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2))
	l.Bias().Data.CopyFrom(tensor.FromSlice([]float32{10, 20}, 2))
	out := Run(l, tensor.FromSlice([]float32{1, 1}, 1, 2))
	// y0 = 1*1+2*1+10 = 13, y1 = 3+4+20 = 27.
	want := tensor.FromSlice([]float32{13, 27}, 1, 2)
	if !out.Equal(want) {
		t.Fatalf("Linear forward = %v, want %v", out, want)
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("fc", rng, 4, 3, true)
	x := tensor.RandUniform(rng, -1, 1, 2, 4)
	gradCheck(t, l, x, 1e-2, 2e-2)
}

func TestLinearNoBias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear("fc", rng, 3, 2, false)
	if l.Bias() != nil || len(l.Params()) != 1 {
		t.Fatal("bias-free linear exposing bias")
	}
	gradCheck(t, l, tensor.RandUniform(rng, -1, 1, 2, 3), 1e-2, 2e-2)
}

func TestLinearShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear("fc", rng, 3, 2, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Forward(tensor.New(1, 4))
}

func TestConv2dLayerGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewConv2d("c", rng, 2, 3, 3, Conv2dConfig{Pad: 1, Stride: 2})
	x := tensor.RandUniform(rng, -1, 1, 1, 2, 5, 5)
	gradCheck(t, l, x, 1e-2, 3e-2)
}

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU("r")
	x := tensor.FromSlice([]float32{-2, -0.5, 0, 0.5, 2}, 1, 5)
	out := Run(l, x)
	want := tensor.FromSlice([]float32{0, 0, 0, 0.5, 2}, 1, 5)
	if !out.Equal(want) {
		t.Fatalf("ReLU = %v", out)
	}
	g := l.Backward(tensor.Ones(1, 5))
	wantG := tensor.FromSlice([]float32{0, 0, 0, 1, 1}, 1, 5)
	if !g.Equal(wantG) {
		t.Fatalf("ReLU backward = %v", g)
	}
}

func TestReLU6Clips(t *testing.T) {
	l := NewReLU6("r6")
	x := tensor.FromSlice([]float32{-1, 3, 7}, 1, 3)
	out := Run(l, x)
	want := tensor.FromSlice([]float32{0, 3, 6}, 1, 3)
	if !out.Equal(want) {
		t.Fatalf("ReLU6 = %v", out)
	}
	g := l.Backward(tensor.Ones(1, 3))
	wantG := tensor.FromSlice([]float32{0, 1, 0}, 1, 3)
	if !g.Equal(wantG) {
		t.Fatalf("ReLU6 backward = %v", g)
	}
}

func TestSoftmaxLayerGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewSoftmax("sm")
	// Use a weighted sum as loss via a linear layer after softmax to get a
	// non-trivial gradient (sum of softmax outputs is constant 1).
	net := NewSequential("net", l, NewLinear("fc", rng, 4, 2, false))
	x := tensor.RandUniform(rng, -1, 1, 2, 4)
	gradCheck(t, net, x, 1e-2, 2e-2)
}

func TestFlattenRoundTrip(t *testing.T) {
	l := NewFlatten("f")
	x := tensor.RandUniform(rand.New(rand.NewSource(7)), -1, 1, 2, 3, 4, 5)
	out := Run(l, x)
	if out.Rank() != 2 || out.Dim(0) != 2 || out.Dim(1) != 60 {
		t.Fatalf("flatten shape %v", out.Shape())
	}
	g := l.Backward(tensor.Ones(2, 60))
	if g.Rank() != 4 || g.Dim(3) != 5 {
		t.Fatalf("flatten backward shape %v", g.Shape())
	}
}

func TestIdentityPassThrough(t *testing.T) {
	l := NewIdentity("id")
	x := tensor.Ones(2, 2)
	if Run(l, x) != x {
		t.Fatal("Identity must return its input unchanged")
	}
	if l.Backward(x) != x {
		t.Fatal("Identity backward must pass through")
	}
}

func TestBatchNormTrainingNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewBatchNorm2d("bn", 3)
	l.SetTraining(true)
	x := tensor.RandNormal(rng, 5, 3, 4, 3, 8, 8)
	out := Run(l, x)
	// Per-channel output mean ~0, variance ~1 (gamma=1, beta=0).
	n, c, h, w := 4, 3, 8, 8
	for ch := 0; ch < c; ch++ {
		var sum, sq float64
		for s := 0; s < n; s++ {
			for y := 0; y < h; y++ {
				for z := 0; z < w; z++ {
					v := float64(out.At(s, ch, y, z))
					sum += v
					sq += v * v
				}
			}
		}
		cnt := float64(n * h * w)
		mean := sum / cnt
		variance := sq/cnt - mean*mean
		if math.Abs(mean) > 1e-3 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d: mean %g var %g", ch, mean, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewBatchNorm2d("bn", 2)
	l.SetTraining(true)
	// Run several training batches to populate running stats.
	for i := 0; i < 20; i++ {
		Run(l, tensor.RandNormal(rng, 2, 1, 8, 2, 4, 4))
	}
	l.SetTraining(false)
	x := tensor.RandNormal(rng, 2, 1, 8, 2, 4, 4)
	out := Run(l, x)
	// Eval output should be roughly normalized given matching stats.
	if m := out.Mean(); math.Abs(m) > 0.3 {
		t.Fatalf("eval mean %g, want ~0", m)
	}
	// Eval mode must be deterministic and independent of batch content:
	// same input twice gives identical output.
	if !Run(l, x).Equal(out) {
		t.Fatal("eval-mode batchnorm not deterministic")
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := NewBatchNorm2d("bn", 2)
	l.SetTraining(true)
	// Compose with a fixed linear readout so the loss isn't invariant to
	// scale (sum of normalized outputs is nearly constant).
	net := NewSequential("net", l,
		NewConv2d("c", rng, 2, 2, 1, Conv2dConfig{}),
	)
	SetTraining(net, true)
	x := tensor.RandUniform(rng, -1, 1, 2, 2, 3, 3)
	gradCheck(t, net, x, 1e-2, 5e-2)
}

func TestBatchNormBackwardWithoutForwardPanics(t *testing.T) {
	l := NewBatchNorm2d("bn", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Backward(tensor.New(1, 2, 1, 1))
}

func TestDropoutTrainingAndEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewDropout("d", rng, 0.5)
	x := tensor.Ones(1, 1000)

	// Eval: identity.
	out := Run(l, x)
	if !out.Equal(x) {
		t.Fatal("eval-mode dropout must be identity")
	}

	// Training: ~half zeroed, survivors scaled by 2.
	l.SetTraining(true)
	out = Run(l, x)
	zeros, twos := 0, 0
	for i := 0; i < out.Len(); i++ {
		switch out.AtFlat(i) {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %g", out.AtFlat(i))
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("dropout zeroed %d of 1000, want ~500", zeros)
	}
	// Expected value preserved: mean ~1.
	if m := out.Mean(); math.Abs(m-1) > 0.15 {
		t.Fatalf("dropout mean %g, want ~1", m)
	}

	// Backward masks identically.
	g := l.Backward(tensor.Ones(1, 1000))
	for i := 0; i < 1000; i++ {
		if (out.AtFlat(i) == 0) != (g.AtFlat(i) == 0) {
			t.Fatal("dropout backward mask mismatch")
		}
	}
}

func TestDropoutInvalidProbabilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropout("d", rand.New(rand.NewSource(1)), 1.0)
}

func TestChannelShuffleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewChannelShuffle("cs", 2)
	x := tensor.RandUniform(rng, -1, 1, 1, 6, 2, 2)
	out := Run(l, x)
	if out.Equal(x) {
		t.Fatal("shuffle must permute channels")
	}
	// Backward is the inverse permutation: shuffling the gradient of a
	// shuffled tensor recovers the original.
	back := l.Backward(out)
	if !back.Equal(x) {
		t.Fatal("shuffle backward must invert the permutation")
	}
}

func TestResidualForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	body := NewSequential("body",
		NewConv2d("c1", rng, 2, 2, 3, Conv2dConfig{Pad: 1}),
		NewReLU("r"),
	)
	block := NewResidual("res", body, nil, NewReLU("post"))
	x := tensor.RandUniform(rng, -1, 1, 1, 2, 4, 4)
	gradCheck(t, block, x, 1e-2, 3e-2)
}

func TestResidualShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	body := NewConv2d("c", rng, 2, 4, 1, Conv2dConfig{}) // changes channels
	block := NewResidual("res", body, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	block.Forward(tensor.New(1, 2, 3, 3))
}

func TestConcatForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cat := NewConcat("cat",
		NewConv2d("b1", rng, 2, 3, 1, Conv2dConfig{}),
		NewConv2d("b2", rng, 2, 2, 3, Conv2dConfig{Pad: 1}),
	)
	x := tensor.RandUniform(rng, -1, 1, 1, 2, 3, 3)
	out := Run(cat, x)
	if out.Dim(1) != 5 {
		t.Fatalf("concat channels = %d, want 5", out.Dim(1))
	}
	gradCheck(t, cat, x, 1e-2, 3e-2)
}

func TestPerturbLayer(t *testing.T) {
	l := NewPerturbLayer("p", nil)
	x := tensor.Ones(1, 4)
	if Run(l, x) != x {
		t.Fatal("nil-Fn PerturbLayer must pass through")
	}
	l.Fn = func(out *tensor.Tensor) { out.SetFlat(0, 99) }
	out := Run(l, x)
	if out.AtFlat(0) != 99 || x.AtFlat(0) != 1 {
		t.Fatal("PerturbLayer must mutate a copy, not the input")
	}
	if g := l.Backward(x); g != x {
		t.Fatal("PerturbLayer backward must pass through")
	}
}

func TestSequentialDeepGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	net := NewSequential("net",
		NewConv2d("c1", rng, 1, 3, 3, Conv2dConfig{Pad: 1}),
		NewReLU("r1"),
		NewAvgPool2d("ap", 2, 0, 0),
		NewConv2d("c2", rng, 3, 4, 3, Conv2dConfig{Pad: 1}),
		NewReLU("r2"),
		NewGlobalAvgPool2d("gap"),
		NewFlatten("fl"),
		NewLinear("fc", rng, 4, 2, true),
	)
	x := tensor.RandUniform(rng, -1, 1, 1, 1, 6, 6)
	gradCheck(t, net, x, 1e-2, 3e-2)
}

func TestMaxPoolLayerBackwardViaGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Max pooling is piecewise-linear; keep inputs well separated from
	// ties by using a strict random draw, and use a small eps.
	net := NewSequential("net", NewMaxPool2d("mp", 2, 0, 0))
	x := tensor.RandUniform(rng, -1, 1, 1, 2, 4, 4)
	gradCheck(t, net, x, 1e-3, 1e-2)
}

func TestSigmoidForwardBackward(t *testing.T) {
	l := NewSigmoid("s")
	x := tensor.FromSlice([]float32{0, 2, -2}, 1, 3)
	out := Run(l, x)
	if out.At(0, 0) != 0.5 {
		t.Fatalf("sigmoid(0) = %g", out.At(0, 0))
	}
	if out.At(0, 1) <= 0.85 || out.At(0, 2) >= 0.15 {
		t.Fatalf("sigmoid saturation wrong: %v", out)
	}
	// Gradient at 0 is 0.25.
	g := l.Backward(tensor.Ones(1, 3))
	if d := g.At(0, 0) - 0.25; d > 1e-6 || d < -1e-6 {
		t.Fatalf("sigmoid grad at 0 = %g", g.At(0, 0))
	}
	gradCheck(t, NewSigmoid("s2"), tensor.RandUniform(rand.New(rand.NewSource(60)), -2, 2, 2, 4), 1e-2, 1e-2)
}

func TestTanhForwardBackward(t *testing.T) {
	l := NewTanh("t")
	x := tensor.FromSlice([]float32{0, 5, -5}, 1, 3)
	out := Run(l, x)
	if out.At(0, 0) != 0 || out.At(0, 1) < 0.99 || out.At(0, 2) > -0.99 {
		t.Fatalf("tanh values %v", out)
	}
	g := l.Backward(tensor.Ones(1, 3))
	if g.At(0, 0) != 1 {
		t.Fatalf("tanh grad at 0 = %g", g.At(0, 0))
	}
	gradCheck(t, NewTanh("t2"), tensor.RandUniform(rand.New(rand.NewSource(61)), -2, 2, 2, 4), 1e-2, 1e-2)
}

// TestReLUForwardMatchesBranchingLoop pins the branch-free rectifier to
// the loop it replaced, bit for bit, on the values injected faults make
// routine: both zeros, both infinities, NaNs of either sign with default
// and non-default payloads, the denormal and finite extremes, and random
// bit patterns — uncapped and capped.
func TestReLUForwardMatchesBranchingLoop(t *testing.T) {
	reference := func(v, cap float32) float32 {
		if v < 0 {
			v = 0
		} else if cap > 0 && v > cap {
			v = cap
		}
		return v
	}
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7F800000, 0xFF800000, // ±Inf
		0x7FC00000, 0xFFC00000, // quiet NaN, both signs
		0x7FC12345, 0xFFC12345, // non-default payload
		0x7F800001, 0xFF800001, // signalling NaN, smallest payload
		0x7FFFFFFF, 0xFFFFFFFF, // largest payload
		0x00000001, 0x80000001, // ± smallest denormal
		0x007FFFFF, 0x807FFFFF, // ± largest denormal
		0x7F7FFFFF, 0xFF7FFFFF, // ±MaxFloat32
		0x40C00000, 0xC0C00000, // ±6, the ReLU6 cap
		0x40C00001, 0x40BFFFFF, // just above and below the cap
	}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 10000; i++ {
		bits = append(bits, rng.Uint32())
	}
	vals := make([]float32, len(bits))
	for i, b := range bits {
		vals[i] = math.Float32frombits(b)
	}
	x := tensor.FromSlice(vals, 1, len(vals))
	for _, l := range []*ReLU{NewReLU("r"), NewReLU6("r6")} {
		out := Run(l, x).Data()
		for i, v := range vals {
			want := math.Float32bits(reference(v, l.Cap))
			if got := math.Float32bits(out[i]); got != want {
				t.Fatalf("Cap=%g: ReLU(%#08x) = %#08x, branching loop gives %#08x", l.Cap, bits[i], got, want)
			}
		}
	}
}

// denseFixture is DenseNet in miniature — every layer kind whose eval
// forward writes into Base.output: dense layers (Concat of identity and
// BN-ReLU-conv3×3), a BN-ReLU-conv1×1-pool transition, a final BN.
func denseFixture(seed int64) Layer {
	rng := rand.New(rand.NewSource(seed))
	dense := func(name string, in int) Layer {
		return NewConcat(name, NewIdentity(name+".id"), NewSequential(name+".branch",
			NewBatchNorm2d(name+".bn", in),
			NewReLU(name+".relu"),
			NewConv2d(name+".conv", rng, in, 4, 3, Conv2dConfig{Pad: 1, NoBias: true}),
		))
	}
	net := NewSequential("dense",
		NewConv2d("stem", rng, 3, 8, 3, Conv2dConfig{Pad: 1, NoBias: true}),
		dense("d1", 8), dense("d2", 12),
		NewBatchNorm2d("t.bn", 16), NewReLU("t.relu"),
		NewConv2d("t.conv", rng, 16, 8, 1, Conv2dConfig{NoBias: true}),
		NewAvgPool2d("t.pool", 2, 0, 0),
		dense("d3", 8),
		NewBatchNorm2d("final.bn", 12), NewReLU("final.relu"),
		NewGlobalAvgPool2d("gap"), NewFlatten("fl"),
		NewLinear("fc", rng, 12, 5, true),
	)
	for _, bn := range batchNorms(net) {
		for ch := 0; ch < bn.Channels; ch++ {
			bn.RunningMean.SetFlat(ch, rng.Float32()-0.5)
			bn.RunningVar.SetFlat(ch, 0.5+rng.Float32())
			bn.gamma.Data.SetFlat(ch, 0.5+rng.Float32())
			bn.beta.Data.SetFlat(ch, rng.Float32()-0.5)
		}
	}
	SetTraining(net, false)
	return net
}

// TestOutputReuseBitIdenticalLogits: a replica that reuses its output
// buffers (as campaign workers do) and a model that allocates every
// output produce bit-identical logits over two consecutive forwards of
// different inputs — so no layer reads what the previous forward left in
// a buffer — and the replica's eval BatchNorm2d and Concat really do hand
// back the buffer of the forward before.
func TestOutputReuseBitIdenticalLogits(t *testing.T) {
	fresh, replica := denseFixture(73), denseFixture(73)
	if err := ShareParams(replica, fresh); err != nil {
		t.Fatal(err)
	}
	SetOutputReuse(replica, true)

	seen := map[string]*tensor.Tensor{}
	Walk(replica, func(path string, l Layer) {
		record := func(_ Layer, _, out *tensor.Tensor) { seen[path] = out }
		switch v := l.(type) {
		case *BatchNorm2d:
			v.RegisterForwardHook(record)
		case *Concat:
			v.RegisterForwardHook(record)
		}
	})

	rng := rand.New(rand.NewSource(79))
	first := map[string]*tensor.Tensor{}
	for pass := 0; pass < 2; pass++ {
		x := tensor.RandUniform(rng, -2, 2, 1, 3, 8, 8)
		want, got := Run(fresh, x), Run(replica, x)
		for i, v := range want.Data() {
			if math.Float32bits(v) != math.Float32bits(got.Data()[i]) {
				t.Fatalf("forward %d: logit %d = %g on the reusing replica, %g on the allocating model", pass, i, got.Data()[i], v)
			}
		}
		for path, out := range seen {
			if pass == 0 {
				first[path] = out
			} else if first[path] != out {
				t.Errorf("%s allocated a new output on the second forward with reuse on", path)
			}
		}
	}
	if len(first) != 8 {
		t.Fatalf("hooked %d BatchNorm2d/Concat layers, want 8", len(first))
	}

	// Training-mode BatchNorm2d keeps allocating: Backward reads the
	// activations of the forward it belongs to.
	bn := NewBatchNorm2d("bn", 3)
	bn.SetOutputReuse(true)
	bn.SetTraining(true)
	x := tensor.RandUniform(rng, -1, 1, 2, 3, 4, 4)
	if a, b := bn.Forward(x), bn.Forward(x); a == b {
		t.Fatal("training-mode BatchNorm2d reused its output buffer")
	}
}
