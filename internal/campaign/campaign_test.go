package campaign

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/nn"
	"gofi/internal/tensor"
	"gofi/internal/train"
)

func TestWilsonKnownValues(t *testing.T) {
	// k=0: interval starts at 0; k=n: interval ends at 1.
	lo, hi := wilson(0, 100, 1.96)
	if lo != 0 || hi < 0.01 || hi > 0.1 {
		t.Fatalf("wilson(0,100) = [%g, %g]", lo, hi)
	}
	lo, hi = wilson(100, 100, 1.96)
	if hi < 1-1e-9 || lo > 0.99 || lo < 0.9 {
		t.Fatalf("wilson(100,100) = [%g, %g]", lo, hi)
	}
	// Symmetric case: p=0.5 centered interval.
	lo, hi = wilson(50, 100, 1.96)
	if math.Abs((lo+hi)/2-0.5) > 0.01 {
		t.Fatalf("wilson(50,100) center = %g", (lo+hi)/2)
	}
	// Zero trials: maximally uninformative.
	lo, hi = wilson(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Fatalf("wilson(0,0) = [%g, %g]", lo, hi)
	}
}

func TestWilsonShrinksWithN(t *testing.T) {
	lo1, hi1 := wilson(10, 100, Z99)
	lo2, hi2 := wilson(100, 1000, Z99)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatal("CI must shrink with more trials")
	}
}

func TestAggregate(t *testing.T) {
	var a Aggregate
	a.Add(Outcome{Top1Changed: true, ConfidenceDrop: 0.5})
	a.Add(Outcome{Top1OutOfTop5: true})
	a.Add(Outcome{NonFinite: true})
	a.Add(Outcome{})
	if a.Trials != 4 || a.Top1Mis != 1 || a.OutOfTop5 != 1 || a.NonFinite != 1 || a.BigConfDrop != 1 {
		t.Fatalf("aggregate %+v", a)
	}
	if a.Rate() != 0.25 {
		t.Fatalf("Rate = %g", a.Rate())
	}
	var b Aggregate
	b.Add(Outcome{Top1Changed: true})
	a.Merge(b)
	if a.Trials != 5 || a.Top1Mis != 2 {
		t.Fatalf("merged %+v", a)
	}
	if (Aggregate{}).Rate() != 0 {
		t.Fatal("empty aggregate rate")
	}
}

// buildConvNet constructs the test convnet architecture; every call uses
// the same init seed so replicas are structurally identical.
func buildConvNet() nn.Layer {
	rng := rand.New(rand.NewSource(1))
	return nn.NewSequential("m",
		nn.NewConv2d("c1", rng, 3, 8, 3, nn.Conv2dConfig{Pad: 1}),
		nn.NewReLU("r1"),
		nn.NewMaxPool2d("p1", 2, 0, 0),
		nn.NewConv2d("c2", rng, 8, 16, 3, nn.Conv2dConfig{Pad: 1}),
		nn.NewReLU("r2"),
		nn.NewGlobalAvgPool2d("gap"),
		nn.NewFlatten("fl"),
		nn.NewLinear("fc", rng, 16, 4, true),
	)
}

// trainedSetup builds a small trained model + dataset for campaign tests.
func trainedSetup(t *testing.T) (*data.Classification, nn.Layer, []int) {
	t.Helper()
	ds, err := data.NewClassification(data.ClassificationConfig{
		Classes: 4, Channels: 3, Size: 16, Noise: 0.1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := buildConvNet()
	if _, err := train.Loop(model, ds, train.Config{Epochs: 3, BatchSize: 16, TrainSize: 256, LR: 0.05, Momentum: 0.9}); err != nil {
		t.Fatal(err)
	}
	eligible := train.CorrectIndices(model, ds, 5000, 60, 12)
	if len(eligible) < 30 {
		t.Fatalf("model only classifies %d/60 correctly", len(eligible))
	}
	return ds, model, eligible
}

// replicaFactory builds per-worker replicas sharing the trained weights.
func replicaFactory(t *testing.T, trained nn.Layer) func(int) (*core.Injector, error) {
	t.Helper()
	return func(worker int) (*core.Injector, error) {
		replica := buildConvNet()
		if err := nn.ShareParams(replica, trained); err != nil {
			return nil, err
		}
		// Batch 8 profiles headroom for the batched trial-packing path;
		// sequential trials still run batch-1 forwards (site draws never
		// depend on the profiled batch, so outcomes are unchanged).
		return core.New(replica, core.Config{Batch: 8, Height: 16, Width: 16, Seed: int64(worker) + 77})
	}
}

// int8ReplicaFactory quantizes the trained model once (the plan is
// deterministic given weights + calibration batch) and builds per-worker
// replicas sharing both the float parameters and the quantization plan,
// so campaign forwards run on the int8 GEMM/conv backend with
// stored-code fault semantics.
func int8ReplicaFactory(t *testing.T, ds *data.Classification, trained nn.Layer) func(int) (*core.Injector, error) {
	t.Helper()
	calib, _ := ds.Batch(0, 16)
	nn.SetTraining(trained, false)
	if err := nn.QuantizeModel(trained, calib, nn.QuantizeOptions{}); err != nil {
		t.Fatal(err)
	}
	return func(worker int) (*core.Injector, error) {
		replica := buildConvNet()
		if err := nn.ShareParams(replica, trained); err != nil {
			return nil, err
		}
		if err := nn.ShareQuant(replica, trained); err != nil {
			return nil, err
		}
		nn.SetTraining(replica, false)
		inj, err := core.New(replica, core.Config{Batch: 8, Height: 16, Width: 16, DType: core.INT8, Seed: int64(worker) + 277})
		if err != nil {
			return nil, err
		}
		if err := inj.UseQuantizedModel(); err != nil {
			inj.Detach()
			return nil, err
		}
		return inj, nil
	}
}

func TestRunBenignFaultsAreMasked(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	cfg := Config{
		Workers:    2,
		Trials:     40,
		Seed:       5,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		// Identity "fault": everything must be masked.
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			_, err := inj.InjectRandomNeuron(rng, core.Func{Label: "id", Fn: func(v float32, _ core.PerturbContext) float32 { return v }})
			return err
		},
	}
	agg, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Trials != 40 {
		t.Fatalf("trials = %d", agg.Trials)
	}
	if agg.Top1Mis != 0 || agg.NonFinite != 0 {
		t.Fatalf("identity faults corrupted outputs: %+v", agg)
	}
}

func TestRunCatastrophicFaultsCorrupt(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	cfg := Config{
		Workers:    2,
		Trials:     30,
		Seed:       6,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		// Inject an enormous value into every layer: corruption should be
		// frequent.
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			_, err := inj.InjectRandomNeuronPerLayer(rng, core.SetValue{V: 1e6})
			return err
		},
	}
	agg, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Top1Mis == 0 {
		t.Fatal("massive injections never corrupted the output")
	}
	lo, hi := agg.WilsonCI(Z99)
	if lo > agg.Rate() || hi < agg.Rate() {
		t.Fatalf("CI [%g,%g] excludes the point estimate %g", lo, hi, agg.Rate())
	}
}

func TestRunDeterministicAcrossRuns(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	mk := func() Aggregate {
		agg, err := Run(context.Background(), Config{
			Workers:    3,
			Trials:     30,
			Seed:       7,
			NewReplica: replicaFactory(t, model),
			Source:     ds,
			Eligible:   eligible,
			ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
				_, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue())
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("campaign not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunValidation(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	ok := Config{
		Trials:     1,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		ArmTrial:   func(*core.Injector, *rand.Rand, int) error { return nil },
	}
	for name, mut := range map[string]func(*Config){
		"no-trials":   func(c *Config) { c.Trials = 0 },
		"no-replica":  func(c *Config) { c.NewReplica = nil },
		"no-source":   func(c *Config) { c.Source = nil },
		"no-arm":      func(c *Config) { c.ArmTrial = nil },
		"no-eligible": func(c *Config) { c.Eligible = nil },
		"neg-workers": func(c *Config) { c.Workers = -1 },
		"neg-batch":   func(c *Config) { c.TrialBatch = -1 },
	} {
		cfg := ok
		mut(&cfg)
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestRunPropagatesArmErrors(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	boom := errors.New("boom")
	_, err := Run(context.Background(), Config{
		Trials:     4,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		ArmTrial:   func(*core.Injector, *rand.Rand, int) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunPropagatesReplicaErrors(t *testing.T) {
	ds, _, _ := trainedSetup(t)
	boom := errors.New("replica boom")
	_, err := Run(context.Background(), Config{
		Trials:     4,
		NewReplica: func(int) (*core.Injector, error) { return nil, boom },
		Source:     ds,
		Eligible:   []int{0},
		ArmTrial:   func(*core.Injector, *rand.Rand, int) error { return nil },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunMoreWorkersThanTrials(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	agg, err := Run(context.Background(), Config{
		Workers:    16,
		Trials:     3,
		Seed:       8,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			_, err := inj.InjectRandomNeuron(rng, core.Zero{})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Trials != 3 {
		t.Fatalf("trials = %d, want 3", agg.Trials)
	}
}

// TestClassifyIgnoresNaNPayload: the tensor level pins every bit but a
// NaN's payload (DESIGN §10), so classify must give logits that differ
// only there one Outcome — ArgMaxRows and TopK only compare, and
// ConfidenceDrop is computed on finite logits only.
func TestClassifyIgnoresNaNPayload(t *testing.T) {
	cp := cleanPrediction{top1: 2, top5: []int{2, 4, 0, 5, 1}, conf: 0.6}
	for _, nanAt := range [][]int{{0}, {2}, {1, 4}, {0, 1, 2, 3, 4, 5}} {
		var got []Outcome
		for _, payload := range []uint32{0x7fc00000, 0xffc0beef} {
			v := []float32{0.5, -1, 2, 0.25, 1.5, -3}
			for _, i := range nanAt {
				v[i] = math.Float32frombits(payload)
			}
			got = append(got, classify(tensor.FromSlice(v, 1, len(v)), cp))
		}
		if got[0] != got[1] {
			t.Fatalf("NaN at %v: outcomes %+v and %+v differ by NaN payload alone", nanAt, got[0], got[1])
		}
	}
}
