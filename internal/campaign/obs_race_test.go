// Race-detector and determinism coverage for the observability wiring:
// eight workers hammer one shared obs.Registry (counters, the trial
// latency histogram, sink gauges) while per-trial records stream to a
// JSONL sink. The assertions are exact equalities, not tolerances —
// atomic counters must not lose a single increment — and the final
// snapshot's counts must be identical for Workers=1 and Workers=8.
//
// External test package: report (the JSONL sink) imports campaign, so an
// internal test file could not import it without a cycle.
package campaign_test

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gofi/internal/campaign"
	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/report"
)

// obsSetup builds a small (untrained — clean-prediction references do
// not require accuracy) model and dataset for engine tests.
func obsSetup(t *testing.T) (*data.Classification, nn.Layer, []int) {
	t.Helper()
	ds, err := data.NewClassification(data.ClassificationConfig{
		Classes: 4, Channels: 3, Size: 16, Noise: 0.1, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	model := nn.NewSequential("m",
		nn.NewConv2d("c1", rng, 3, 6, 3, nn.Conv2dConfig{Pad: 1}),
		nn.NewReLU("r1"),
		nn.NewMaxPool2d("p1", 2, 0, 0),
		nn.NewConv2d("c2", rng, 6, 8, 3, nn.Conv2dConfig{Pad: 1}),
		nn.NewReLU("r2"),
		nn.NewGlobalAvgPool2d("gap"),
		nn.NewFlatten("fl"),
		nn.NewLinear("fc", rng, 8, 4, true),
	)
	eligible := make([]int, 24)
	for i := range eligible {
		eligible[i] = i
	}
	return ds, model, eligible
}

func obsReplicaFactory(t *testing.T, trained nn.Layer) func(int) (*core.Injector, error) {
	t.Helper()
	return func(worker int) (*core.Injector, error) {
		rng := rand.New(rand.NewSource(3))
		replica := nn.NewSequential("m",
			nn.NewConv2d("c1", rng, 3, 6, 3, nn.Conv2dConfig{Pad: 1}),
			nn.NewReLU("r1"),
			nn.NewMaxPool2d("p1", 2, 0, 0),
			nn.NewConv2d("c2", rng, 6, 8, 3, nn.Conv2dConfig{Pad: 1}),
			nn.NewReLU("r2"),
			nn.NewGlobalAvgPool2d("gap"),
			nn.NewFlatten("fl"),
			nn.NewLinear("fc", rng, 8, 4, true),
		)
		if err := nn.ShareParams(replica, trained); err != nil {
			return nil, err
		}
		// Batch 4 gives the forced-packing row real lanes.
		return core.New(replica, core.Config{Batch: 4, Height: 16, Width: 16, Seed: int64(worker)})
	}
}

// TestMetricsExactUnderEightWorkersWithJSONLSink is the satellite race
// test: Workers=8 over a shared registry with a streaming JSONL sink.
// Counter totals must be exact, and every trial must appear in the JSONL
// stream exactly once.
func TestMetricsExactUnderEightWorkersWithJSONLSink(t *testing.T) {
	t.Run("width1", func(t *testing.T) { metricsExact(t, campaign.ScheduleAuto, 0) })
	// Forced 4-lane entries: a trial that shared a forward still owes the
	// latency histogram exactly one sample.
	t.Run("pack4", func(t *testing.T) { metricsExact(t, campaign.SchedulePack, 4) })
}

func metricsExact(t *testing.T, schedule campaign.Schedule, trialBatch int) {
	ds, model, eligible := obsSetup(t)
	const trials = 96
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := report.NewTrialJSONL(f)
	reg := obs.NewRegistry()
	agg, err := campaign.Run(context.Background(), campaign.Config{
		Workers:    8,
		Trials:     trials,
		Seed:       31,
		NewReplica: obsReplicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			_, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue())
			return err
		},
		Sinks:      []campaign.TrialSink{sink},
		Metrics:    reg,
		Schedule:   schedule,
		TrialBatch: trialBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	// Exact counter totals: one trial record, one sink delivery and one
	// applied neuron perturbation per trial — not approximately, exactly.
	for name, want := range map[string]int64{
		campaign.MetricTrials:          trials,
		campaign.MetricSkipped:         0,
		campaign.MetricSinkRecords:     trials,
		core.MetricNeuronPerturbations: trials,
		campaign.MetricTop1Changed:     int64(agg.Top1Mis),
		campaign.MetricOutOfTop5:       int64(agg.OutOfTop5),
		campaign.MetricNonFinite:       int64(agg.NonFinite),
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want exactly %d", name, got, want)
		}
	}
	if got := snap.Histograms[campaign.MetricTrialTime].Count; got != trials {
		t.Errorf("trial latency histogram count = %d, want %d", got, trials)
	}
	if packed := snap.Counters[campaign.MetricBatchTrialsPacked]; (packed > 0) != (trialBatch > 1) {
		t.Errorf("%d trials ran in multi-lane forwards at TrialBatch %d", packed, trialBatch)
	}
	if sink.Lines() != trials {
		t.Errorf("JSONL sink wrote %d lines, want %d", sink.Lines(), trials)
	}

	// Every trial index appears in the stream exactly once and decodes.
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	seen := make(map[int]bool, trials)
	sc := bufio.NewScanner(rf)
	for sc.Scan() {
		var rec campaign.TrialRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		if seen[rec.Trial] {
			t.Fatalf("trial %d streamed twice", rec.Trial)
		}
		seen[rec.Trial] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != trials {
		t.Fatalf("JSONL stream has %d distinct trials, want %d", len(seen), trials)
	}
}

// TestSnapshotCountsDeterministicAcrossWorkerCounts is the acceptance
// check: every exact count in the snapshot — counters and histogram
// sample counts — is a pure function of (Seed, Trials), identical for
// Workers=1 and Workers=8. (Gauges and latency quantiles describe the
// particular run and are exempt.)
func TestSnapshotCountsDeterministicAcrossWorkerCounts(t *testing.T) {
	ds, model, eligible := obsSetup(t)
	run := func(workers int) obs.Snapshot {
		reg := obs.NewRegistry()
		_, err := campaign.Run(context.Background(), campaign.Config{
			Workers:    workers,
			Trials:     64,
			Seed:       41,
			NewReplica: obsReplicaFactory(t, model),
			Source:     ds,
			Eligible:   eligible,
			ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
				// Mixed neuron + stochastic-value faults so the
				// per-model tallies exercise perturb-time RNG draws too.
				if _, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue()); err != nil {
					return err
				}
				_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
				return err
			},
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial.Counters, parallel.Counters) {
		t.Fatalf("counters diverge across worker counts:\nWorkers=1: %v\nWorkers=8: %v",
			serial.Counters, parallel.Counters)
	}
	for name, st := range serial.Histograms {
		if got := parallel.Histograms[name].Count; got != st.Count {
			t.Fatalf("histogram %s count %d (Workers=8) vs %d (Workers=1)", name, got, st.Count)
		}
	}
	if serial.Counters[campaign.MetricTrials] != 64 {
		t.Fatalf("trials counter = %d, want 64", serial.Counters[campaign.MetricTrials])
	}
	// Two injections armed per trial; both error models apply exactly one
	// perturbation per forward pass.
	if got := serial.Counters[core.MetricNeuronPerturbations]; got != 128 {
		t.Fatalf("neuron perturbations = %d, want exactly 128", got)
	}
}
