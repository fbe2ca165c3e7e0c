package campaign

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/tensor"
)

// logitBits snapshots a logits tensor as exact bit patterns, so lane
// comparisons are Float32bits-identical, not approximately equal.
func logitBits(t *tensor.Tensor) []uint32 {
	data := t.Data()
	bits := make([]uint32, len(data))
	for i, v := range data {
		bits[i] = math.Float32bits(v)
	}
	return bits
}

// TestCrossLaneIsolation is the batched path's isolation wall: for every
// lane of a packed K-lane forward, the lane's logits must be bitwise
// identical to the logits of the same trial run alone in a batch-1
// forward. Checked on a pure chain (with batch norm in eval mode) and on
// a residual topology, through both the full packed forward and the
// shared-prefix (cut + tile + suffix) route the engine actually uses.
func TestCrossLaneIsolation(t *testing.T) {
	topologies := []struct {
		name  string
		build func() nn.Layer
	}{
		{
			name: "chain",
			build: func() nn.Layer {
				rng := rand.New(rand.NewSource(3))
				return nn.NewSequential("m",
					nn.NewConv2d("c1", rng, 3, 8, 3, nn.Conv2dConfig{Pad: 1}),
					nn.NewBatchNorm2d("bn1", 8),
					nn.NewReLU("r1"),
					nn.NewMaxPool2d("p1", 2, 0, 0),
					nn.NewConv2d("c2", rng, 8, 16, 3, nn.Conv2dConfig{Pad: 1}),
					nn.NewReLU("r2"),
					nn.NewGlobalAvgPool2d("gap"),
					nn.NewFlatten("fl"),
					nn.NewLinear("fc", rng, 16, 4, true),
				)
			},
		},
		{
			name: "residual",
			build: func() nn.Layer {
				rng := rand.New(rand.NewSource(4))
				return nn.NewSequential("rm",
					nn.NewConv2d("stem", rng, 3, 8, 3, nn.Conv2dConfig{Pad: 1}),
					nn.NewReLU("r0"),
					nn.NewResidual("block",
						nn.NewSequential("body",
							nn.NewConv2d("b1", rng, 8, 8, 3, nn.Conv2dConfig{Pad: 1}),
							nn.NewReLU("br"),
							nn.NewConv2d("b2", rng, 8, 8, 3, nn.Conv2dConfig{Pad: 1}),
						),
						nil,
						nn.NewReLU("post"),
					),
					nn.NewGlobalAvgPool2d("gap"),
					nn.NewFlatten("fl"),
					nn.NewLinear("fc", rng, 8, 4, true),
				)
			},
		},
	}
	const K = 6
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			model := topo.build()
			nn.SetTraining(model, false)
			inj, err := core.New(model, core.Config{Batch: 8, Height: 16, Width: 16, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := inj.BuildPrefixPlan()
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.RandUniform(rand.New(rand.NewSource(6)), -1, 1, 1, 3, 16, 16)

			// Stochastic models draw from the trial stream at every forward
			// pass, so each execution — solo or packed — re-arms from a
			// fresh derivation of the trial's stream: one arming, one
			// forward, exactly like the engine.
			soloRun := func(arm func(*core.Injector, *rand.Rand) error, trial int) []uint32 {
				rng := TrialStream(99, trial)
				inj.Reset()
				inj.SetRand(rng)
				if err := arm(inj, rng); err != nil {
					t.Fatal(err)
				}
				return logitBits(nn.Run(model, x))
			}
			armLanes := func(arm func(*core.Injector, *rand.Rand) error) {
				inj.Reset()
				for i := 0; i < K; i++ {
					rng := TrialStream(99, i)
					if err := inj.BeginLane(i, i, rng); err != nil {
						t.Fatal(err)
					}
					if err := arm(inj, rng); err != nil {
						t.Fatal(err)
					}
					inj.EndLane()
				}
			}

			// Phase 1 — random sites, full packed forward.
			randomArm := func(inj *core.Injector, rng *rand.Rand) error {
				_, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue())
				return err
			}
			solo := make([][]uint32, K)
			for i := 0; i < K; i++ {
				solo[i] = soloRun(randomArm, i)
			}
			armLanes(randomArm)
			packed := nn.Run(model, x.TileBatch(K))
			for i := 0; i < K; i++ {
				lane := logitBits(packed.Lane(i))
				if fmt.Sprint(lane) != fmt.Sprint(solo[i]) {
					t.Fatalf("full packed forward: lane %d logits %v != solo %v", i, lane, solo[i])
				}
			}

			// Phase 2 — sites pinned to the last hooked layer, so the
			// shared-prefix route (clean batch-1 prefix to a non-trivial
			// cut, tiled boundary, batch-K suffix) is exercised — the
			// execution shape the executor actually uses.
			last := len(inj.Layers()) - 1
			deepArm := func(inj *core.Injector, rng *rand.Rand) error {
				site := core.NeuronSite{Layer: last, Batch: 0, C: rng.Intn(inj.Layers()[last].OutShape[1])}
				return inj.DeclareNeuronFI(core.DefaultRandomValue(), site)
			}
			for i := 0; i < K; i++ {
				solo[i] = soloRun(deepArm, i)
			}
			armLanes(deepArm)
			minLayer, ok := inj.MinArmedLayer()
			if !ok {
				t.Fatal("MinArmedLayer not ok with only neuron faults armed")
			}
			cut := plan.CutFor(minLayer)
			if cut == 0 {
				t.Fatalf("deep sites on layer %d yielded cut 0 — prefix route untested", last)
			}
			boundary, err := plan.Chain().ForwardTo(cut, x)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := plan.Chain().ForwardFrom(cut, boundary.TileBatch(K))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < K; i++ {
				lane := logitBits(resumed.Lane(i))
				if fmt.Sprint(lane) != fmt.Sprint(solo[i]) {
					t.Fatalf("cut-%d packed forward: lane %d logits %v != solo %v", cut, i, lane, solo[i])
				}
			}
			inj.Reset()
		})
	}
}

// untrainedCampaign builds a small campaign fixture without the cost of
// training: clean predictions of an untrained model are still a
// deterministic reference, which is all the batched-vs-sequential
// equality checks need.
func untrainedCampaign(t *testing.T, arm func(*core.Injector, *rand.Rand) error) Config {
	t.Helper()
	ds, err := data.NewClassification(data.ClassificationConfig{
		Classes: 4, Channels: 3, Size: 16, Noise: 0.1, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	build := func() nn.Layer {
		rng := rand.New(rand.NewSource(8))
		return nn.NewSequential("m",
			nn.NewConv2d("c1", rng, 3, 8, 3, nn.Conv2dConfig{Pad: 1}),
			nn.NewReLU("r1"),
			nn.NewConv2d("c2", rng, 8, 8, 3, nn.Conv2dConfig{Pad: 1}),
			nn.NewReLU("r2"),
			nn.NewGlobalAvgPool2d("gap"),
			nn.NewFlatten("fl"),
			nn.NewLinear("fc", rng, 8, 4, true),
		)
	}
	trained := build()
	return Config{
		Trials: 64,
		Seed:   17,
		NewReplica: func(worker int) (*core.Injector, error) {
			replica := build()
			if err := nn.ShareParams(replica, trained); err != nil {
				return nil, err
			}
			return core.New(replica, core.Config{Batch: 8, Height: 16, Width: 16, Seed: int64(worker) + 7})
		},
		Source:   ds,
		Eligible: []int{0, 1, 2, 3, 4, 5},
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error { return arm(inj, rng) },
	}
}

// TestBatchedRunPacksAndMatchesSequential asserts the batched path both
// engages (trials actually run packed, not silently falling back) and
// leaves the aggregate byte-identical to the sequential run.
func TestBatchedRunPacksAndMatchesSequential(t *testing.T) {
	neuronArm := func(inj *core.Injector, rng *rand.Rand) error {
		_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
		return err
	}
	seqCfg := untrainedCampaign(t, neuronArm)
	seq, err := Run(context.Background(), seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		cfg := untrainedCampaign(t, neuronArm)
		cfg.Workers = workers
		cfg.TrialBatch = 8
		cfg.Metrics = obs.NewRegistry()
		agg, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if agg != seq {
			t.Fatalf("workers=%d trial-batch=8 aggregate %+v != sequential %+v", workers, agg, seq)
		}
		snap := cfg.Metrics.Snapshot()
		if packed := snap.Counters[MetricBatchTrialsPacked]; packed < int64(cfg.Trials)/2 {
			t.Fatalf("workers=%d: only %d/%d trials ran packed — batched path not engaging", workers, packed, cfg.Trials)
		}
		if k := snap.Gauges[MetricBatchK]; k != 8 {
			t.Fatalf("workers=%d: batch K gauge = %v, want 8", workers, k)
		}
	}
}

// TestBatchedRunWeightFaultsFallBack asserts lane-unsafe trials (weight
// faults) are never packed: they run on the sequential path, are counted
// as fallbacks, and the aggregate still matches the sequential run.
func TestBatchedRunWeightFaultsFallBack(t *testing.T) {
	mixedArm := func(inj *core.Injector, rng *rand.Rand) error {
		if rng.Intn(2) == 0 {
			_, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue())
			return err
		}
		_, err := inj.InjectRandomWeight(rng, core.DefaultRandomValue())
		return err
	}
	seq, err := Run(context.Background(), untrainedCampaign(t, mixedArm))
	if err != nil {
		t.Fatal(err)
	}
	cfg := untrainedCampaign(t, mixedArm)
	cfg.TrialBatch = 4
	cfg.Metrics = obs.NewRegistry()
	agg, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg != seq {
		t.Fatalf("mixed-fault batched aggregate %+v != sequential %+v", agg, seq)
	}
	snap := cfg.Metrics.Snapshot()
	if snap.Counters[MetricBatchSeqFallbacks] == 0 {
		t.Fatal("weight-fault trials produced no sequential fallbacks")
	}
	if snap.Counters[MetricBatchTrialsPacked] == 0 {
		t.Fatal("neuron-fault trials of the mix never ran packed")
	}
}

// TestBatchedRunClampsToProfiledBatch: TrialBatch beyond the replicas'
// profiled batch must clamp, not fail or misindex lanes.
func TestBatchedRunClampsToProfiledBatch(t *testing.T) {
	neuronArm := func(inj *core.Injector, rng *rand.Rand) error {
		_, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue())
		return err
	}
	seq, err := Run(context.Background(), untrainedCampaign(t, neuronArm))
	if err != nil {
		t.Fatal(err)
	}
	cfg := untrainedCampaign(t, neuronArm)
	cfg.TrialBatch = 64 // profiled batch is 8
	cfg.Metrics = obs.NewRegistry()
	agg, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg != seq {
		t.Fatalf("clamped batched aggregate %+v != sequential %+v", agg, seq)
	}
	if k := cfg.Metrics.Snapshot().Gauges[MetricBatchK]; k != 8 {
		t.Fatalf("batch K gauge = %v, want clamp to profiled batch 8", k)
	}
}

// TestDemotionRunsThroughTheSameExecutor pins the demotion contract: a
// trial that cannot share a forward — refused by the probe, or refused
// only once other lanes are armed — runs as a width-1 entry of the same
// executor, so forced packing and ScheduleSeq produce equal record
// streams (errors included, under SkipAndCount), and every demoted trial
// is counted in MetricBatchSeqFallbacks exactly once.
func TestDemotionRunsThroughTheSameExecutor(t *testing.T) {
	boom := fmt.Errorf("boom")
	neuron := func(inj *core.Injector, rng *rand.Rand) error {
		_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
		return err
	}
	run := func(t *testing.T, arm func(*core.Injector, *rand.Rand, int) error, sch Schedule) ([]TrialRecord, obs.Snapshot) {
		cfg := untrainedCampaign(t, nil)
		cfg.ArmTrial = arm
		// One worker: the fixture's replicas share weight storage, which
		// the weight-fault trials below mutate.
		cfg.TrialBatch, cfg.Schedule = 4, sch
		cfg.OnError = SkipAndCount
		cfg.Metrics = obs.NewRegistry()
		recs := make([]TrialRecord, cfg.Trials)
		cfg.Sinks = []TrialSink{SinkFunc(func(r TrialRecord) error {
			r.Worker = 0 // which worker ran a trial is timing, not result
			recs[r.Trial] = r
			return nil
		})}
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		return recs, cfg.Metrics.Snapshot()
	}
	same := func(t *testing.T, arm func(*core.Injector, *rand.Rand, int) error) obs.Snapshot {
		seq, _ := run(t, arm, ScheduleSeq)
		packed, snap := run(t, arm, SchedulePack)
		for i := range seq {
			if packed[i] != seq[i] {
				t.Fatalf("trial %d differs under forced packing:\n pack %+v\n seq  %+v", i, packed[i], seq[i])
			}
		}
		if snap.Counters[MetricBatchTrialsPacked] == 0 {
			t.Fatal("nothing ran packed — the demotion path is untested")
		}
		return snap
	}

	t.Run("refused by the probe", func(t *testing.T) {
		demoted := 0
		snap := same(t, func(inj *core.Injector, rng *rand.Rand, trial int) error {
			switch trial % 3 {
			case 0: // lane-unsafe: weights are shared by every lane
				_, err := inj.InjectRandomWeight(rng, core.DefaultRandomValue())
				return err
			case 1:
				return boom
			}
			return neuron(inj, rng)
		})
		for trial := 0; trial < 64; trial++ {
			if trial%3 != 2 {
				demoted++
			}
		}
		if got := snap.Counters[MetricBatchSeqFallbacks]; got != int64(demoted) {
			t.Fatalf("seq_fallbacks = %d, want the %d lane-unsafe and erroring trials", got, demoted)
		}
		if got := snap.Counters[MetricSkipped]; got != 21 {
			t.Fatalf("skipped = %d, want the 21 erroring trials", got)
		}
	})

	t.Run("refused inside the entry", func(t *testing.T) {
		// A declaration the probe accepts (alone on a Reset injector) but
		// that refuses to share: only lane 0 of every entry arms, the rest
		// are demoted at execution time.
		snap := same(t, func(inj *core.Injector, rng *rand.Rand, _ int) error {
			if lowest, _ := inj.MinArmedLayer(); lowest < len(inj.Layers()) {
				return boom
			}
			return neuron(inj, rng)
		})
		planned := int64(snap.Gauges[MetricSchedPacked])
		forwards := snap.Histograms[MetricBatchFill].Count
		if got := snap.Counters[MetricBatchSeqFallbacks]; got != planned-forwards || got == 0 {
			t.Fatalf("seq_fallbacks = %d, want %d planned lanes minus %d surviving lane-0 trials", got, planned, forwards)
		}
		if got := snap.Counters[MetricSkipped]; got != 0 {
			t.Fatalf("%d demoted trials were skipped; alone they must arm and run", got)
		}
	})
}
