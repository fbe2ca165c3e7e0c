package campaign

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gofi/internal/core"
)

// stochasticArm draws its fault value from the trial stream at perturb
// time, exercising the worker-independence of the injector's private RNG.
func stochasticArm(inj *core.Injector, rng *rand.Rand, _ int) error {
	_, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue())
	return err
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	mk := func(workers int) Aggregate {
		agg, err := Run(context.Background(), Config{
			Workers:    workers,
			Trials:     48,
			Seed:       13,
			NewReplica: replicaFactory(t, model),
			Source:     ds,
			Eligible:   eligible,
			ArmTrial:   stochasticArm,
		})
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	serial := mk(1)
	for _, workers := range []int{2, 4, 8} {
		if got := mk(workers); got != serial {
			t.Fatalf("Workers=%d diverged: %+v vs Workers=1 %+v", workers, got, serial)
		}
	}
}

func TestRunCancellationReturnsPartialAggregate(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var armed atomic.Int64
	const total = 10_000
	start := time.Now()
	agg, err := Run(ctx, Config{
		Workers:    2,
		Trials:     total,
		Seed:       14,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			if armed.Add(1) == 8 {
				cancel()
			}
			return stochasticArm(inj, rng, 0)
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if agg.Trials == 0 || agg.Trials >= total {
		t.Fatalf("partial aggregate has %d trials, want 0 < n < %d", agg.Trials, total)
	}
	// The abort must happen at a trial boundary, not after draining the
	// remaining budget (10k trials would take minutes).
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestRunStreamsOneRecordPerTrial(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	const total = 24
	// The engine calls sinks from a single collector goroutine, so a plain
	// slice append is the documented contract.
	var got []TrialRecord
	agg, err := Run(context.Background(), Config{
		Workers:    3,
		Trials:     total,
		Seed:       15,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		ArmTrial:   stochasticArm,
		Sinks:      []TrialSink{SinkFunc(func(r TrialRecord) error { got = append(got, r); return nil })},
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Trials != total || len(got) != total {
		t.Fatalf("trials = %d, records = %d, want %d", agg.Trials, len(got), total)
	}
	seen := make(map[int]bool, total)
	for _, r := range got {
		if r.Trial < 0 || r.Trial >= total || seen[r.Trial] {
			t.Fatalf("bad or duplicate trial id %d", r.Trial)
		}
		seen[r.Trial] = true
		if r.Err == "" && !strings.Contains(r.Site, "neuron") {
			t.Fatalf("trial %d has no captured site: %q", r.Trial, r.Site)
		}
		if r.Worker < 0 || r.Worker >= 3 {
			t.Fatalf("trial %d ran on worker %d", r.Trial, r.Worker)
		}
	}
}

func TestRunProgressCallback(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	var snaps []Progress
	_, err := Run(context.Background(), Config{
		Workers:       2,
		Trials:        20,
		Seed:          16,
		NewReplica:    replicaFactory(t, model),
		Source:        ds,
		Eligible:      eligible,
		ArmTrial:      stochasticArm,
		ProgressEvery: 5,
		Progress:      func(p Progress) { snaps = append(snaps, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("progress callback never fired")
	}
	last := snaps[len(snaps)-1]
	if last.Done != 20 || last.Total != 20 {
		t.Fatalf("final snapshot %+v", last)
	}
	if last.TrialsPerSec <= 0 {
		t.Fatalf("TrialsPerSec = %g", last.TrialsPerSec)
	}
}

func TestRunSkipAndCount(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	const total = 40
	agg, err := Run(context.Background(), Config{
		Workers:    2,
		Trials:     total,
		Seed:       17,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		OnError:    SkipAndCount,
		// Fail roughly half the trials, decided by the trial stream so the
		// skip pattern is itself deterministic.
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			if rng.Intn(2) == 0 {
				return errors.New("synthetic arm failure")
			}
			return stochasticArm(inj, rng, 0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Skipped == 0 {
		t.Fatal("no trials were skipped")
	}
	if agg.Trials+agg.Skipped != total {
		t.Fatalf("Trials %d + Skipped %d != %d", agg.Trials, agg.Skipped, total)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	base := Config{
		Workers:    2,
		Trials:     12,
		Seed:       18,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			if rng.Intn(3) == 0 {
				panic("synthetic trial panic")
			}
			return stochasticArm(inj, rng, 0)
		},
	}

	// FailFast: the panic surfaces as an error instead of crashing.
	if _, err := Run(context.Background(), base); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want recovered panic", err)
	}

	// SkipAndCount: the panicking trials are voided and the rest complete.
	cfg := base
	cfg.OnError = SkipAndCount
	agg, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Skipped == 0 || agg.Trials+agg.Skipped != 12 {
		t.Fatalf("aggregate %+v", agg)
	}
}

// TestRunSharedWeightsConcurrency drives many workers over replicas that
// share one trained parameter set; run with -race to verify the read-only
// sharing contract.
func TestRunSharedWeightsConcurrency(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	agg, err := Run(context.Background(), Config{
		Workers:    4,
		Trials:     32,
		Seed:       19,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		ArmTrial:   stochasticArm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Trials != 32 {
		t.Fatalf("trials = %d", agg.Trials)
	}
}

func TestTrialRNGIndependentStreams(t *testing.T) {
	// Adjacent trials and adjacent seeds must produce different streams.
	a := TrialStream(1, 0).Int63()
	b := TrialStream(1, 1).Int63()
	c := TrialStream(2, 0).Int63()
	if a == b || a == c {
		t.Fatalf("trial streams collide: %d %d %d", a, b, c)
	}
	// Re-deriving the same (seed, trial) reproduces the stream.
	if x, y := TrialStream(7, 3).Int63(), TrialStream(7, 3).Int63(); x != y {
		t.Fatalf("stream not reproducible: %d vs %d", x, y)
	}
}
