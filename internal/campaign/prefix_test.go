package campaign

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"gofi/internal/core"
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

// TestPrefixReuseWeightCampaignIdentical checks the automatic fallback:
// weight-fault campaigns must yield identical results with the flag on,
// because every trial detects the weight mutation and runs the full
// forward.
func TestPrefixReuseWeightCampaignIdentical(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	base := Config{
		Workers:    1, // weight trials mutate shared weights; serialize
		Trials:     20,
		Seed:       22,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			_, err := inj.InjectRandomWeight(rng, core.BitFlip{Bit: 30})
			return err
		},
	}
	refAgg, refOuts := trialOutcomes(t, base)
	cfg := base
	cfg.PrefixReuse = true
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	agg, outs := trialOutcomes(t, cfg)
	if agg != refAgg {
		t.Fatalf("weight campaign: reuse aggregate %+v != %+v", agg, refAgg)
	}
	for i := range outs {
		if !outcomesBitIdentical(outs[i], refOuts[i]) {
			t.Fatalf("weight campaign trial %d differs under reuse", i)
		}
	}
	if got := reg.Counter(MetricPrefixFallbacks).Value(); got != int64(cfg.Trials) {
		t.Fatalf("fallbacks = %d, want every one of %d weight trials", got, cfg.Trials)
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
