// Package gofi_bench benchmarks every table and figure of the paper's
// evaluation plus the design-choice ablations called out in DESIGN.md §5.
//
// Benchmarks reproducing experiment *shape* (who wins, by what factor) use
// reduced trial counts; the cmd/gofi-* binaries run the full versions.
package gofi_bench

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gofi/internal/campaign"
	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/experiments"
	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/tensor"
	"gofi/internal/train"
)

// --- Figure 3: instrumentation overhead ---------------------------------

// benchInference measures one network's inference under a given worker
// count, with or without an armed injection.
func benchInference(b *testing.B, model string, workers int, fi bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	m, err := models.Build(model, rng, 10, 32)
	if err != nil {
		b.Fatal(err)
	}
	nn.SetTraining(m, false)
	inj, err := core.New(m, core.Config{Height: 32, Width: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer inj.Detach()
	// The input is drawn from its own stream so the base and FI variants
	// time the exact same data — inference latency is mildly
	// data-dependent (denormal-heavy draws run slower), which would
	// otherwise masquerade as injection overhead.
	x := tensor.RandUniform(rand.New(rand.NewSource(999)), -1, 1, 1, 3, 32, 32)
	if fi {
		if _, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue()); err != nil {
			b.Fatal(err)
		}
	}
	prev := tensor.SetWorkers(workers)
	defer tensor.SetWorkers(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Run(m, x)
	}
}

func BenchmarkFig3AlexNetSerialBase(b *testing.B)   { benchInference(b, "alexnet", 1, false) }
func BenchmarkFig3AlexNetSerialFI(b *testing.B)     { benchInference(b, "alexnet", 1, true) }
func BenchmarkFig3AlexNetParallelBase(b *testing.B) { benchInference(b, "alexnet", 8, false) }
func BenchmarkFig3AlexNetParallelFI(b *testing.B)   { benchInference(b, "alexnet", 8, true) }
func BenchmarkFig3VGG19SerialBase(b *testing.B)     { benchInference(b, "vgg19", 1, false) }
func BenchmarkFig3VGG19SerialFI(b *testing.B)       { benchInference(b, "vgg19", 1, true) }
func BenchmarkFig3ResNet110SerialBase(b *testing.B) { benchInference(b, "resnet110", 1, false) }
func BenchmarkFig3ResNet110SerialFI(b *testing.B)   { benchInference(b, "resnet110", 1, true) }

// BenchmarkModelForwardAlloc tracks allocation churn of a full-model
// forward pass (the per-trial cost every campaign pays); the kernel
// backend's scratch arena is measured against this.
func BenchmarkModelForwardAlloc(b *testing.B) {
	benchModelForwardAlloc(b, false)
}

// BenchmarkModelForwardAllocReuse is the same forward pass in the
// campaign-replica configuration (nn.SetOutputReuse on): layer outputs
// are recycled across runs, so steady-state heap traffic collapses to
// the few layers that still allocate.
func BenchmarkModelForwardAllocReuse(b *testing.B) {
	benchModelForwardAlloc(b, true)
}

func benchModelForwardAlloc(b *testing.B, reuse bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	m, err := models.Build("alexnet", rng, 10, 32)
	if err != nil {
		b.Fatal(err)
	}
	nn.SetTraining(m, false)
	nn.SetOutputReuse(m, reuse)
	x := tensor.RandUniform(rand.New(rand.NewSource(999)), -1, 1, 1, 3, 32, 32)
	nn.Run(m, x) // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Run(m, x)
	}
}

// --- §III-C batch sweep --------------------------------------------------

func benchBatch(b *testing.B, batch int, fi bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	m, err := models.Build("resnet18", rng, 10, 32)
	if err != nil {
		b.Fatal(err)
	}
	nn.SetTraining(m, false)
	inj, err := core.New(m, core.Config{Batch: batch, Height: 32, Width: 32, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer inj.Detach()
	// Same-data discipline as benchInference: see the comment there.
	x := tensor.RandUniform(rand.New(rand.NewSource(999)), -1, 1, batch, 3, 32, 32)
	if fi {
		if _, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Run(m, x)
	}
}

func BenchmarkBatchSweep1Base(b *testing.B)  { benchBatch(b, 1, false) }
func BenchmarkBatchSweep1FI(b *testing.B)    { benchBatch(b, 1, true) }
func BenchmarkBatchSweep8Base(b *testing.B)  { benchBatch(b, 8, false) }
func BenchmarkBatchSweep8FI(b *testing.B)    { benchBatch(b, 8, true) }
func BenchmarkBatchSweep32Base(b *testing.B) { benchBatch(b, 32, false) }
func BenchmarkBatchSweep32FI(b *testing.B)   { benchBatch(b, 32, true) }

// --- Figure 4: classification campaign ----------------------------------

func BenchmarkFig4Campaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunFig4(context.Background(), experiments.Fig4Config{
			Models:         []string{"alexnet"},
			TrialsPerModel: 50,
			Workers:        2,
			Classes:        4,
			InSize:         16,
			TrainEpochs:    6,
			Seed:           3,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: detection perturbation ------------------------------------

func BenchmarkFig5Detect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunFig5(context.Background(), experiments.Fig5Config{
			Scenes: 3, InjectionsPerScene: 2, SceneSize: 32, TrainEpochs: 8, Seed: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6: IBP vulnerability ------------------------------------------

func BenchmarkFig6IBP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunFig6(context.Background(), experiments.Fig6Config{
			Alphas: []float64{0.1}, Epsilons: []float32{0.125},
			Trials: 40, InSize: 16, Classes: 4, TrainEpochs: 3, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table I: injection training -----------------------------------------

func BenchmarkTable1Training(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunTable1(context.Background(), experiments.Table1Config{
			Model: "resnet18", Classes: 4, InSize: 16,
			Epochs: 2, TrainSize: 128, BatchSize: 16, EvalTrials: 40, Seed: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: Grad-CAM ----------------------------------------------------

func BenchmarkFig7GradCAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunFig7(context.Background(), experiments.Fig7Config{
			Model: "densenet", Classes: 4, InSize: 16, TrainEpochs: 3, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 1: hooks vs. interposed perturbation layers ----------------
//
// §III-A rejects rebuilding the model with perturbation layers after every
// convolution; this quantifies the disarmed-path cost of both designs.

func buildPerturbLayerAlexNet(rng *rand.Rand) nn.Layer {
	// AlexNet with a pass-through PerturbLayer after every convolution —
	// the §III-A alternative design.
	base, _ := models.Build("alexnet", rng, 10, 32)
	seq := base.(*nn.Sequential)
	var rebuilt []nn.Layer
	for _, l := range seq.Children() {
		rebuilt = append(rebuilt, l)
		if _, ok := l.(*nn.Conv2d); ok {
			rebuilt = append(rebuilt, nn.NewPerturbLayer("perturb", nil))
		}
	}
	return nn.NewSequential("alexnet-perturb", rebuilt...)
}

func BenchmarkAblationHookVsLayer_Hooks(b *testing.B) {
	benchInference(b, "alexnet", 1, false) // hooks installed, disarmed
}

func BenchmarkAblationHookVsLayer_Layers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := buildPerturbLayerAlexNet(rng)
	nn.SetTraining(m, false)
	x := tensor.RandUniform(rng, -1, 1, 1, 3, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Run(m, x)
	}
}

// --- Ablation 2: offline vs. in-hook weight perturbation -----------------
//
// The paper applies weight faults by mutating the tensor before inference
// (zero runtime cost); the alternative re-applies them inside every
// forward hook.

func BenchmarkAblationWeightOffline(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m, _ := models.Build("alexnet", rng, 10, 32)
	nn.SetTraining(m, false)
	inj, err := core.New(m, core.Config{Height: 32, Width: 32, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer inj.Detach()
	if _, err := inj.InjectRandomWeight(rng, core.DefaultRandomValue()); err != nil {
		b.Fatal(err)
	}
	x := tensor.RandUniform(rand.New(rand.NewSource(999)), -1, 1, 1, 3, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Run(m, x)
	}
}

func BenchmarkAblationWeightInHook(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m, _ := models.Build("alexnet", rng, 10, 32)
	nn.SetTraining(m, false)
	// Naive design: a hook on every conv re-applies the weight fault each
	// forward pass.
	nn.Walk(m, func(_ string, l nn.Layer) {
		if c, ok := l.(*nn.Conv2d); ok {
			w := c.Weight().Data
			off := rng.Intn(w.Len())
			val := rng.Float32()*2 - 1
			c.RegisterForwardHook(func(nn.Layer, *tensor.Tensor, *tensor.Tensor) {
				w.SetFlat(off, val)
			})
		}
	})
	x := tensor.RandUniform(rand.New(rand.NewSource(999)), -1, 1, 1, 3, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Run(m, x)
	}
}

// --- Ablation 3: serial vs. parallel backend -----------------------------

func BenchmarkAblationBackendSerial(b *testing.B)   { benchInference(b, "resnet18", 1, false) }
func BenchmarkAblationBackendParallel(b *testing.B) { benchInference(b, "resnet18", 8, false) }

// --- Ablation 4: armed-site count scaling --------------------------------

func benchSiteCount(b *testing.B, sites int) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	m, _ := models.Build("alexnet", rng, 10, 32)
	nn.SetTraining(m, false)
	inj, err := core.New(m, core.Config{Height: 32, Width: 32, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	defer inj.Detach()
	for i := 0; i < sites; i++ {
		s := inj.RandomNeuronSite(rng, true)
		if err := inj.DeclareNeuronFI(core.Zero{}, s); err != nil {
			b.Fatal(err)
		}
	}
	x := tensor.RandUniform(rand.New(rand.NewSource(999)), -1, 1, 1, 3, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Run(m, x)
	}
}

func BenchmarkAblationSites0(b *testing.B)   { benchSiteCount(b, 0) }
func BenchmarkAblationSites1(b *testing.B)   { benchSiteCount(b, 1) }
func BenchmarkAblationSites16(b *testing.B)  { benchSiteCount(b, 16) }
func BenchmarkAblationSites256(b *testing.B) { benchSiteCount(b, 256) }

// --- Campaign engine throughput ------------------------------------------
//
// Worker-count scaling of the trial engine over one shared trained model.
// The engine's contract makes the Aggregate identical across these three
// benchmarks; only the wall clock may differ.

var campaignBench struct {
	once     sync.Once
	ds       *data.Classification
	model    nn.Layer
	eligible []int
	err      error
}

func campaignBenchSetup(b *testing.B) (*data.Classification, nn.Layer, []int) {
	b.Helper()
	s := &campaignBench
	s.once.Do(func() {
		s.ds, s.err = data.NewClassification(data.ClassificationConfig{
			Classes: 4, Channels: 3, Size: 16, Noise: 0.2, Seed: 31,
		})
		if s.err != nil {
			return
		}
		s.model, s.err = models.Build("alexnet", rand.New(rand.NewSource(31)), 4, 16)
		if s.err != nil {
			return
		}
		if _, s.err = train.Loop(s.model, s.ds, train.Config{
			Epochs: 6, BatchSize: 16, TrainSize: 256, LR: 0.05, Momentum: 0.9,
		}); s.err != nil {
			return
		}
		s.eligible = train.CorrectIndices(s.model, s.ds, 5000, 60, 12)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	if len(s.eligible) == 0 {
		b.Fatal("trained model classifies nothing correctly")
	}
	return s.ds, s.model, s.eligible
}

func benchCampaignWorkers(b *testing.B, workers int) {
	b.Helper()
	ds, model, eligible := campaignBenchSetup(b)
	// Serial conv backend: otherwise intra-trial parallelism saturates the
	// CPU on its own and masks the engine-level scaling being measured.
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	const trials = 200
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := campaign.Run(context.Background(), campaign.Config{
			Workers:  workers,
			Trials:   trials,
			Seed:     32,
			Source:   ds,
			Eligible: eligible,
			NewReplica: func(worker int) (*core.Injector, error) {
				replica, err := models.Build("alexnet", rand.New(rand.NewSource(31)), 4, 16)
				if err != nil {
					return nil, err
				}
				if err := nn.ShareParams(replica, model); err != nil {
					return nil, err
				}
				return core.New(replica, core.Config{Height: 16, Width: 16, Seed: int64(worker)})
			},
			ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
				_, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue())
				return err
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if agg.Trials != trials {
			b.Fatalf("trials = %d, want %d", agg.Trials, trials)
		}
	}
	b.ReportMetric(float64(trials*b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkCampaignWorkers1(b *testing.B) { benchCampaignWorkers(b, 1) }
func BenchmarkCampaignWorkers4(b *testing.B) { benchCampaignWorkers(b, 4) }
func BenchmarkCampaignWorkers8(b *testing.B) { benchCampaignWorkers(b, 8) }

// --- Clean-prefix activation reuse --------------------------------------
//
// Single-site neuron campaigns on a deep network are the checkpoint
// store's home turf: the clean-prediction pass snapshots every chain
// boundary per sample, so each armed trial resumes from a direct hit and
// pays only the suffix below its fault site. DenseNet's cost concentrates
// in the early high-resolution dense blocks (mean suffix ≈ 39% of the
// forward pass over its conv sites), so uniform single-site campaigns
// recover well over half of every trial. The engine contract makes the
// reuse and full-forward aggregates identical; only the wall clock may
// differ (BENCH_prefix.json records the measured ratio).

var prefixBench struct {
	once  sync.Once
	ds    *data.Classification
	model nn.Layer
	err   error
}

func benchCampaignPrefix(b *testing.B, reuse bool) {
	b.Helper()
	s := &prefixBench
	s.once.Do(func() {
		s.ds, s.err = data.NewClassification(data.ClassificationConfig{
			Classes: 4, Channels: 3, Size: 32, Noise: 0.2, Seed: 51,
		})
		if s.err != nil {
			return
		}
		// Untrained weights: a throughput benchmark needs forward-pass cost,
		// not accuracy, and skipping training keeps setup seconds long.
		s.model, s.err = models.Build("densenet", rand.New(rand.NewSource(51)), 4, 32)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	eligible := make([]int, 8)
	for i := range eligible {
		eligible[i] = i
	}
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	const trials = 96
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := campaign.Run(context.Background(), campaign.Config{
			Workers:     1,
			Trials:      trials,
			Seed:        52,
			Source:      prefixBench.ds,
			Eligible:    eligible,
			PrefixReuse: reuse,
			NewReplica: func(worker int) (*core.Injector, error) {
				replica, err := models.Build("densenet", rand.New(rand.NewSource(51)), 4, 32)
				if err != nil {
					return nil, err
				}
				if err := nn.ShareParams(replica, prefixBench.model); err != nil {
					return nil, err
				}
				return core.New(replica, core.Config{Height: 32, Width: 32, Seed: int64(worker)})
			},
			ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
				_, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue())
				return err
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if agg.Trials != trials {
			b.Fatalf("trials = %d, want %d", agg.Trials, trials)
		}
	}
	b.ReportMetric(float64(trials*b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkCampaignPrefixFull(b *testing.B)  { benchCampaignPrefix(b, false) }
func BenchmarkCampaignPrefixReuse(b *testing.B) { benchCampaignPrefix(b, true) }

// --- Batched trial packing ------------------------------------------------
//
// Same DenseNet single-site campaign as the prefix benchmark, but running
// K compatible trials per forward pass: the pack shares one clean batch-1
// prefix down to the pack's chain cut and runs the suffix once at batch K,
// so per-trial cost approaches (prefix + suffix·K)/K. On a single CPU
// the win is pure FLOP sharing — no parallelism is involved. Aggregates
// are byte-identical to the sequential rows (golden_test.go pins this);
// BENCH_batch.json records the measured ratios.
func benchCampaignBatch(b *testing.B, trialBatch int, reuse bool, sch campaign.Schedule) {
	b.Helper()
	s := &prefixBench
	s.once.Do(func() {
		s.ds, s.err = data.NewClassification(data.ClassificationConfig{
			Classes: 4, Channels: 3, Size: 32, Noise: 0.2, Seed: 51,
		})
		if s.err != nil {
			return
		}
		s.model, s.err = models.Build("densenet", rand.New(rand.NewSource(51)), 4, 32)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	// Fewer samples than the prefix benchmark: ~24 trials per sample give
	// the packer enough same-sample trials that each pack's members have
	// adjacent cuts (the pack resumes from the min member cut, so packing
	// a deep trial with a shallow one wastes the deep one's prefix).
	eligible := make([]int, 4)
	for i := range eligible {
		eligible[i] = i
	}
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	const trials = 96
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := campaign.Run(context.Background(), campaign.Config{
			Workers:     1,
			Trials:      trials,
			Seed:        52,
			Source:      prefixBench.ds,
			Eligible:    eligible,
			PrefixReuse: reuse,
			TrialBatch:  trialBatch,
			Schedule:    sch,
			NewReplica: func(worker int) (*core.Injector, error) {
				replica, err := models.Build("densenet", rand.New(rand.NewSource(51)), 4, 32)
				if err != nil {
					return nil, err
				}
				if err := nn.ShareParams(replica, prefixBench.model); err != nil {
					return nil, err
				}
				return core.New(replica, core.Config{Batch: 8, Height: 32, Width: 32, Seed: int64(worker)})
			},
			ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
				_, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue())
				return err
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if agg.Trials != trials {
			b.Fatalf("trials = %d, want %d", agg.Trials, trials)
		}
	}
	b.ReportMetric(float64(trials*b.N)/b.Elapsed().Seconds(), "trials/s")
}

// --- Sequential early stopping --------------------------------------------
//
// The statistical campaign layer's efficiency claim (Gräfe et al.'s
// extension): a fixed-count campaign must size its budget before seeing
// any data, and without knowing the SDC rate the ±0.5% @ 95% design is
// the worst-case n = z²/(4·hw²) = 38,416 trials. The sequential watcher
// reaches the same interval target adaptively — it stops as soon as the
// OBSERVED rate's Wilson interval is tight enough, which for the low SDC
// rates single-bit upsets actually produce is several times earlier.
// The bench runs the early-stopped campaign on the DenseNet single-site
// fixture and reports trials-to-target plus the savings ratio against
// the fixed design; BENCH_stats.json records the measured numbers. The
// stop index is deterministic in (Seed, Trials) — golden-pinned in
// internal/campaign — so the ratio is a property of the fixture, not of
// this machine.
func BenchmarkCampaignStopToTarget(b *testing.B) {
	s := &prefixBench
	s.once.Do(func() {
		s.ds, s.err = data.NewClassification(data.ClassificationConfig{
			Classes: 4, Channels: 3, Size: 32, Noise: 0.2, Seed: 51,
		})
		if s.err != nil {
			return
		}
		s.model, s.err = models.Build("densenet", rand.New(rand.NewSource(51)), 4, 32)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	eligible := make([]int, 8)
	for i := range eligible {
		eligible[i] = i
	}
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	// The fixed-count design at the same target, sized before any data.
	rule := stats.StopRule{HalfWidth: 0.005, Confidence: 0.95}
	z := stats.ZQuantile(rule.Confidence)
	fixed := int(math.Ceil(z * z / (4 * rule.HalfWidth * rule.HalfWidth)))
	stopped := -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		watcher := stats.NewSequential(rule)
		_, err := campaign.Run(context.Background(), campaign.Config{
			Workers:     1,
			Trials:      fixed,
			Seed:        52,
			Source:      prefixBench.ds,
			Eligible:    eligible,
			PrefixReuse: true,
			Stop:        watcher,
			NewReplica: func(worker int) (*core.Injector, error) {
				replica, err := models.Build("densenet", rand.New(rand.NewSource(51)), 4, 32)
				if err != nil {
					return nil, err
				}
				if err := nn.ShareParams(replica, prefixBench.model); err != nil {
					return nil, err
				}
				return core.New(replica, core.Config{Height: 32, Width: 32, Seed: int64(worker)})
			},
			ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
				_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
				return err
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		stopped = watcher.StopTrial()
		if stopped < 0 {
			b.Fatalf("stop rule never fired inside the fixed design budget %d", fixed)
		}
	}
	b.ReportMetric(float64(stopped+1), "trials_to_target")
	b.ReportMetric(float64(fixed)/float64(stopped+1), "savings_x")
}

// --- Quantized INT8 campaign backend --------------------------------------
//
// The prefix benchmark's DenseNet single-site campaign, run end-to-end on
// the int8 GEMM/conv backend: weights stored as int8 codes with
// per-channel scales, activations requantized onto each layer's output
// grid between layers, and neuron bit flips applied with stored-code
// semantics. int32 accumulation is exact, so aggregates stay
// bit-identical across workers and schedules (golden_test.go's int8
// fixture pins it); this pair records the campaign-throughput ratio over
// the float32 backend in BENCH_int8.json.

var int8Bench struct {
	once   sync.Once
	qmodel nn.Layer
	err    error
}

func benchCampaignBackend(b *testing.B, int8Backend bool) {
	b.Helper()
	s := &prefixBench
	s.once.Do(func() {
		s.ds, s.err = data.NewClassification(data.ClassificationConfig{
			Classes: 4, Channels: 3, Size: 32, Noise: 0.2, Seed: 51,
		})
		if s.err != nil {
			return
		}
		s.model, s.err = models.Build("densenet", rand.New(rand.NewSource(51)), 4, 32)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	q := &int8Bench
	if int8Backend {
		// Quantize one master (plan is deterministic given weights + calib
		// batch); replicas share its float params and quantization plan.
		q.once.Do(func() {
			q.qmodel, q.err = models.Build("densenet", rand.New(rand.NewSource(51)), 4, 32)
			if q.err != nil {
				return
			}
			if q.err = nn.ShareParams(q.qmodel, s.model); q.err != nil {
				return
			}
			nn.SetTraining(q.qmodel, false)
			calib, _ := s.ds.Batch(0, 8)
			q.err = nn.QuantizeModel(q.qmodel, calib, nn.QuantizeOptions{})
		})
		if q.err != nil {
			b.Fatal(q.err)
		}
	}
	eligible := make([]int, 8)
	for i := range eligible {
		eligible[i] = i
	}
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	const trials = 96
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := campaign.Run(context.Background(), campaign.Config{
			Workers:  1,
			Trials:   trials,
			Seed:     52,
			Source:   prefixBench.ds,
			Eligible: eligible,
			NewReplica: func(worker int) (*core.Injector, error) {
				replica, err := models.Build("densenet", rand.New(rand.NewSource(51)), 4, 32)
				if err != nil {
					return nil, err
				}
				if err := nn.ShareParams(replica, prefixBench.model); err != nil {
					return nil, err
				}
				cfg := core.Config{Height: 32, Width: 32, Seed: int64(worker)}
				if int8Backend {
					if err := nn.ShareQuant(replica, int8Bench.qmodel); err != nil {
						return nil, err
					}
					nn.SetTraining(replica, false)
					cfg.DType = core.INT8
				}
				inj, err := core.New(replica, cfg)
				if err != nil {
					return nil, err
				}
				if int8Backend {
					if err := inj.UseQuantizedModel(); err != nil {
						inj.Detach()
						return nil, err
					}
				}
				return inj, nil
			},
			ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
				_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
				return err
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if agg.Trials != trials {
			b.Fatalf("trials = %d, want %d", agg.Trials, trials)
		}
	}
	b.ReportMetric(float64(trials*b.N)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkCampaignF32 is the float32-backend baseline for the int8 row:
// identical campaign, identical fault model, only the execution backend
// differs (BENCH_int8.json records the ratio).
func BenchmarkCampaignF32(b *testing.B)  { benchCampaignBackend(b, false) }
func BenchmarkCampaignInt8(b *testing.B) { benchCampaignBackend(b, true) }

// The Batch rows pin SchedulePack so they keep measuring the
// fill-every-lane grouping that BENCH_batch.json documents, independent
// of what the default schedule decides.
func BenchmarkCampaignBatchSeq(b *testing.B) { benchCampaignBatch(b, 1, false, campaign.SchedulePack) }
func BenchmarkCampaignBatchSeqReuse(b *testing.B) {
	benchCampaignBatch(b, 1, true, campaign.SchedulePack)
}
func BenchmarkCampaignBatchK4(b *testing.B) { benchCampaignBatch(b, 4, false, campaign.SchedulePack) }
func BenchmarkCampaignBatchK8(b *testing.B) { benchCampaignBatch(b, 8, false, campaign.SchedulePack) }
func BenchmarkCampaignBatchK8Reuse(b *testing.B) {
	benchCampaignBatch(b, 8, true, campaign.SchedulePack)
}

// --- Cut-aware schedule ---------------------------------------------------
//
// Same campaign with ScheduleAuto and an 8-lane budget: the cost model
// (calibrated per chain node during the clean pass) prices each group's
// packing against sequential execution. With prefix reuse on, warmed
// checkpoints make every sequential trial resume at its own deepest cut,
// so auto declines to pack and must match BenchmarkCampaignBatchSeqReuse;
// with reuse off, shared prefixes make cut-similar packs win, so auto must
// match BenchmarkCampaignBatchK8. BENCH_sched.json records both bars.
func BenchmarkCampaignSchedAuto(b *testing.B) { benchCampaignBatch(b, 8, false, campaign.ScheduleAuto) }
func BenchmarkCampaignSchedAutoReuse(b *testing.B) {
	benchCampaignBatch(b, 8, true, campaign.ScheduleAuto)
}
