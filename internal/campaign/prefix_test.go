package campaign

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/nn"
	"gofi/internal/obs"
)

// trialOutcomes runs a campaign and returns its aggregate plus the
// per-trial outcomes indexed by trial number.
func trialOutcomes(t *testing.T, cfg Config) (Aggregate, []Outcome) {
	t.Helper()
	outs := make([]Outcome, cfg.Trials)
	seen := make([]bool, cfg.Trials)
	cfg.Sinks = append(cfg.Sinks, SinkFunc(func(r TrialRecord) error {
		outs[r.Trial] = r.Outcome
		seen[r.Trial] = true
		return nil
	}))
	agg, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("trial %d produced no record", i)
		}
	}
	return agg, outs
}

// outcomesBitIdentical compares outcomes including the float field at the
// bit level: prefix reuse promises byte-identical results, not merely
// close ones.
func outcomesBitIdentical(a, b Outcome) bool {
	return a.Top1Changed == b.Top1Changed &&
		a.Top1OutOfTop5 == b.Top1OutOfTop5 &&
		a.NonFinite == b.NonFinite &&
		math.Float64bits(a.ConfidenceDrop) == math.Float64bits(b.ConfidenceDrop)
}

// TestPrefixReuseByteIdenticalOutcomes is the engine-level differential
// test: with prefix reuse on, every trial's outcome — and therefore the
// aggregate — must be bit-identical to the reuse-off run, at one worker
// and at eight.
func TestPrefixReuseByteIdenticalOutcomes(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	base := Config{
		Trials:     40,
		Seed:       21,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
			return err
		},
	}
	ref := base
	ref.Workers = 1
	refAgg, refOuts := trialOutcomes(t, ref)

	for _, workers := range []int{1, 8} {
		cfg := base
		cfg.Workers = workers
		cfg.PrefixReuse = true
		agg, outs := trialOutcomes(t, cfg)
		if agg != refAgg {
			t.Fatalf("workers=%d reuse aggregate %+v != full-forward %+v", workers, agg, refAgg)
		}
		for i := range outs {
			if !outcomesBitIdentical(outs[i], refOuts[i]) {
				t.Fatalf("workers=%d trial %d: reuse %+v != full-forward %+v", workers, i, outs[i], refOuts[i])
			}
		}
	}
}

// isolatedReplicaFactory builds per-worker replicas with private deep
// copies of the trained weights — what a weight-fault campaign needs, so
// one worker's offline mutation is invisible to the others. With int8 set
// every replica also gets its own quantized plan (deterministic given
// weights and calibration batch), and weight faults land in its stored
// int8 codes.
func isolatedReplicaFactory(t *testing.T, ds *data.Classification, trained nn.Layer, int8 bool) func(int) (*core.Injector, error) {
	t.Helper()
	calib, _ := ds.Batch(0, 16)
	return func(worker int) (*core.Injector, error) {
		replica := buildConvNet()
		if err := nn.CopyParams(replica, trained); err != nil {
			return nil, err
		}
		nn.SetTraining(replica, false)
		cfg := core.Config{Batch: 8, Height: 16, Width: 16, Seed: int64(worker) + 177}
		if !int8 {
			return core.New(replica, cfg)
		}
		if err := nn.QuantizeModel(replica, calib, nn.QuantizeOptions{}); err != nil {
			return nil, err
		}
		cfg.DType = core.INT8
		inj, err := core.New(replica, cfg)
		if err != nil {
			return nil, err
		}
		return inj, inj.UseQuantizedModel()
	}
}

// TestPrefixReuseWeightCampaignIdentical is the campaign-level wall for
// weight faults resuming from checkpoints: on isolated replicas, float32
// and stored int8 codes, the per-trial records are equal across Workers
// {1, 8} × reuse on/off, and with reuse on exactly the trials whose
// faulted layer sits in chain node 0 run the full forward — every other
// one is served by the store the clean pass warmed.
func TestPrefixReuseWeightCampaignIdentical(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	for _, int8 := range []bool{false, true} {
		name := "f32"
		if int8 {
			name = "int8"
		}
		t.Run(name, func(t *testing.T) {
			base := Config{
				Trials:     60,
				Seed:       22,
				NewReplica: isolatedReplicaFactory(t, ds, model, int8),
				Source:     ds,
				Eligible:   eligible,
				ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
					_, err := inj.InjectRandomWeight(rng, core.BitFlip{Bit: core.RandomBit})
					return err
				},
			}
			run := func(workers int, reuse bool, reg *obs.Registry) []TrialRecord {
				t.Helper()
				cfg := base
				cfg.Workers, cfg.PrefixReuse, cfg.Metrics = workers, reuse, reg
				recs := make([]TrialRecord, cfg.Trials)
				cfg.Sinks = []TrialSink{SinkFunc(func(r TrialRecord) error {
					r.Worker = 0 // which worker ran a trial is timing, not result
					recs[r.Trial] = r
					return nil
				})}
				if _, err := Run(context.Background(), cfg); err != nil {
					t.Fatal(err)
				}
				return recs
			}
			ref := run(1, false, nil)

			// The first conv is chain node 0: a fault there has no clean
			// prefix. The record's site text names the layer.
			firstNode, changed := 0, 0
			for _, r := range ref {
				if strings.HasPrefix(r.Site, "weight L0 ") {
					firstNode++
				}
				if r.Outcome.Top1Changed || r.Outcome.ConfidenceDrop != 0 {
					changed++
				}
			}
			if firstNode == 0 || firstNode == len(ref) {
				t.Fatalf("%d of %d trials fault the first layer; the fixture must mix both kinds", firstNode, len(ref))
			}
			if changed == 0 {
				t.Fatal("no weight fault changed any output; equal records would prove nothing")
			}

			for _, workers := range []int{1, 8} {
				for _, reuse := range []bool{false, true} {
					reg := obs.NewRegistry()
					got := run(workers, reuse, reg)
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("workers=%d reuse=%v trial %d:\n got  %+v\n want %+v", workers, reuse, i, got[i], ref[i])
						}
					}
					if !reuse {
						continue
					}
					hits := reg.Counter(MetricPrefixHits).Value()
					misses := reg.Counter(MetricPrefixMisses).Value()
					fallbacks := reg.Counter(MetricPrefixFallbacks).Value()
					if fallbacks != int64(firstNode) {
						t.Fatalf("workers=%d: fallbacks = %d, want the %d first-node trials", workers, fallbacks, firstNode)
					}
					if misses != 0 || hits != int64(len(ref)-firstNode) {
						t.Fatalf("workers=%d: hits %d misses %d, want every other trial (%d) a hit on the warmed store", workers, hits, misses, len(ref)-firstNode)
					}
					if ev := reg.Gauge(MetricPrefixEvictions).Value(); ev != 0 {
						t.Fatalf("workers=%d: %v evictions from a store that fits the working set", workers, ev)
					}
					if b := reg.Gauge(MetricPrefixStoreBytes).Value(); b <= 0 {
						t.Fatalf("workers=%d: store_bytes gauge = %v, want the warmed working set", workers, b)
					}
				}
			}
		})
	}
}

// TestSharedWeightReplicasKeepFullForward: replicas that share weight
// storage with another worker (a weight campaign built without per-worker
// copies) must not resume weight-armed trials from checkpoints, nor write
// any — another worker's mutation is visible to this one's prefix walk.
// The engine sees the sharing by itself, trial by trial, so such a crew
// may still be handed the fixture's clean cache: what its clean pass
// leaves there is pristine, and its trials never touch it. Two trials on
// two workers, sequenced through ArmTrial and the sink so the scenario is
// a real cross-worker one yet free of data races: trial 0 faults the
// first layer on one worker and stays armed while trial 1, on the other,
// faults the last — a trial whose own cut would otherwise be deep.
func TestSharedWeightReplicasKeepFullForward(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	entered, done0 := make(chan struct{}), make(chan struct{})
	reg := obs.NewRegistry()
	cache := NewCleanCache(16 << 20)
	store := cache.store
	cfg := Config{
		Workers:     2,
		Trials:      2,
		Seed:        25,
		NewReplica:  replicaFactory(t, model),
		Source:      ds,
		Eligible:    eligible,
		PrefixReuse: true,
		Metrics:     reg,
		Clean:       cache,
		ArmTrial: func(inj *core.Injector, _ *rand.Rand, g int) error {
			layer := 0
			if g == 1 {
				close(entered) // a second worker holds trial 1
				<-done0
				layer = len(inj.Layers()) - 1
			} else {
				<-entered
			}
			return inj.DeclareWeightFI(core.SetValue{V: 1e6}, core.WeightSite{Layer: layer, Idx: []int{0, 0, 0, 0}})
		},
		Sinks: []TrialSink{SinkFunc(func(r TrialRecord) error {
			if r.Trial == 0 {
				close(done0)
			}
			return nil
		})},
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	hits := reg.Counter(MetricPrefixHits).Value()
	misses := reg.Counter(MetricPrefixMisses).Value()
	fallbacks := reg.Counter(MetricPrefixFallbacks).Value()
	if hits != 0 || misses != 0 || fallbacks != int64(cfg.Trials) {
		t.Fatalf("hits %d misses %d fallbacks %d, want 0/0/%d: weight-armed trials on shared weights run full-length and touch no checkpoint", hits, misses, fallbacks, cfg.Trials)
	}

	// What the store holds is what the clean pass put there, bit for bit
	// the activations of a pristine copy of the model.
	pristine := buildConvNet()
	if err := nn.CopyParams(pristine, model); err != nil {
		t.Fatal(err)
	}
	nn.SetTraining(pristine, false)
	chain := nn.PlanChain(pristine)
	checked := 0
	for _, idx := range eligible {
		x := cfg.input(idx)
		for cut := 1; cut <= chain.Len(); cut++ {
			snap, _, ok := store.Get(idx, cut)
			if !ok {
				continue
			}
			want, err := chain.ForwardTo(cut, x)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range want.Data() {
				if math.Float32bits(snap.Data()[i]) != math.Float32bits(v) {
					t.Fatalf("checkpoint (sample %d, cut %d)[%d] = %v, clean activation is %v", idx, cut, i, snap.Data()[i], v)
				}
			}
			checked++
		}
	}
	if checked == 0 || checked != store.Len() {
		t.Fatalf("verified %d snapshots, store holds %d", checked, store.Len())
	}
}

// TestPrefixReuseMetrics checks the hit/miss/saved accounting: every
// trial is a hit, a miss, or a fallback, and every hit observes a saving.
func TestPrefixReuseMetrics(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	reg := obs.NewRegistry()
	agg, err := Run(context.Background(), Config{
		Workers:     2,
		Trials:      60,
		Seed:        23,
		NewReplica:  replicaFactory(t, model),
		Source:      ds,
		Eligible:    eligible,
		PrefixReuse: true,
		Metrics:     reg,
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			_, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue())
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hits := reg.Counter(MetricPrefixHits).Value()
	misses := reg.Counter(MetricPrefixMisses).Value()
	fallbacks := reg.Counter(MetricPrefixFallbacks).Value()
	if hits+misses+fallbacks != int64(agg.Trials) {
		t.Fatalf("hits(%d)+misses(%d)+fallbacks(%d) != trials(%d)", hits, misses, fallbacks, agg.Trials)
	}
	// With 60 single-site trials on a 2-conv model cycling ~30 eligible
	// samples, the stores must serve some hits.
	if hits == 0 {
		t.Fatal("no checkpoint hits in a repeated-sample campaign")
	}
	if got := reg.Histogram(MetricPrefixSaved).Count(); got != hits {
		t.Fatalf("saved histogram count %d != hits %d", got, hits)
	}
}

// TestPrefixReuseDeterministicAcrossRuns re-checks the (Seed, Trials)
// contract with the reuse path engaged.
func TestPrefixReuseDeterministicAcrossRuns(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	mk := func(workers int) Aggregate {
		agg, err := Run(context.Background(), Config{
			Workers:     workers,
			Trials:      30,
			Seed:        24,
			NewReplica:  replicaFactory(t, model),
			Source:      ds,
			Eligible:    eligible,
			PrefixReuse: true,
			ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
				_, err := inj.InjectRandomNeuron(rng, core.GaussianNoise{Std: 2})
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	a, b, c := mk(1), mk(3), mk(8)
	if a != b || b != c {
		t.Fatalf("reuse campaign depends on workers: %+v / %+v / %+v", a, b, c)
	}
}
