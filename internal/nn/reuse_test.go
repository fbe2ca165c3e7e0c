package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/tensor"
)

// TestContainersReuseOutputBuffers: with output reuse on, a Residual sums
// into its own cached buffer and a Concat keeps its per-branch slices, so
// neither allocates per forward beyond the one shape copy Residual takes;
// and reuse-on eval forwards of DenseNet and ResNet-18 — the models made
// of them — stay bit-identical to reuse-off ones.
func TestContainersReuseOutputBuffers(t *testing.T) {
	x := tensor.RandUniform(rand.New(rand.NewSource(3)), -1, 1, 1, 4, 8, 8)
	for name, c := range map[string]struct {
		layer nn.Layer
		max   float64
	}{
		"residual": {nn.NewResidual("r", nn.NewIdentity("body"), nil, nil), 1},
		"concat":   {nn.NewConcat("c", nn.NewIdentity("a"), nn.NewIdentity("b")), 0},
	} {
		nn.SetOutputReuse(c.layer, true)
		nn.Run(c.layer, x)
		if got := testing.AllocsPerRun(50, func() { nn.Run(c.layer, x) }); got > c.max {
			t.Errorf("%s: %v allocations per reuse-on forward, want at most %v", name, got, c.max)
		}
	}
	for _, name := range []string{"densenet", "resnet18"} {
		m, err := models.Build(name, rand.New(rand.NewSource(1)), 10, 32)
		if err != nil {
			t.Fatal(err)
		}
		nn.SetTraining(m, false)
		in := tensor.RandUniform(rand.New(rand.NewSource(2)), -1, 1, 1, 3, 32, 32)
		want := nn.Run(m, in)
		nn.SetOutputReuse(m, true)
		for pass := 0; pass < 2; pass++ {
			got := nn.Run(m, in)
			for i, v := range want.Data() {
				if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
					t.Fatalf("%s pass %d: logit %d = %v with reuse, %v without", name, pass, i, got.Data()[i], v)
				}
			}
		}
	}
}
