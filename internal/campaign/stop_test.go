package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/nn"
	"gofi/internal/obs"
)

// stopRule is the shared early-stopping rule for the determinism matrix:
// loose enough to fire well inside the trial budget on the trained
// fixture's SDC rate, strict enough that it cannot fire at MinTrials
// regardless of outcomes.
func stopRule() stats.StopRule {
	return stats.StopRule{HalfWidth: 0.1, Confidence: 0.9, MinTrials: 30}
}

// TestStopIndexDeterministicAcrossExecutionMatrix is the tentpole's core
// promise: the stop decision is a pure function of the trial-index-
// ordered record stream — the same trial index and the byte-identical
// partial aggregate across Workers × Schedule × PrefixReuse, because the
// engine folds completions into the watcher on a contiguous frontier,
// never in completion order.
func TestStopIndexDeterministicAcrossExecutionMatrix(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	run := func(workers int, sch Schedule, reuse bool) (int, Aggregate) {
		watcher := stats.NewSequential(stopRule())
		agg, err := Run(context.Background(), Config{
			Workers:     workers,
			Trials:      300,
			Seed:        19,
			NewReplica:  replicaFactory(t, model),
			Source:      ds,
			Eligible:    eligible,
			TrialBatch:  8,
			Schedule:    sch,
			PrefixReuse: reuse,
			Stop:        watcher,
			ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
				_, err := inj.InjectRandomNeuron(rng, core.SetValue{V: 1e6})
				return err
			},
		})
		if err != nil {
			t.Fatalf("w=%d sch=%v reuse=%v: %v", workers, sch, reuse, err)
		}
		return watcher.StopTrial(), agg
	}

	refStop, refAgg := run(1, ScheduleAuto, false)
	if refStop < 0 {
		t.Fatalf("rule never fired within the budget (agg %+v); the matrix would be vacuous", refAgg)
	}
	if refStop >= 299 {
		t.Fatalf("rule fired only at the budget edge (trial %d)", refStop)
	}
	if refAgg.Trials+refAgg.Skipped != refStop+1 {
		t.Fatalf("partial aggregate covers %d trials, want %d", refAgg.Trials+refAgg.Skipped, refStop+1)
	}
	for _, workers := range []int{1, 8} {
		for _, sch := range []Schedule{ScheduleAuto, SchedulePack, ScheduleSeq} {
			for _, reuse := range []bool{false, true} {
				stop, agg := run(workers, sch, reuse)
				if stop != refStop {
					t.Errorf("w=%d sch=%v reuse=%v: stop trial %d, want %d", workers, sch, reuse, stop, refStop)
				}
				if agg != refAgg {
					t.Errorf("w=%d sch=%v reuse=%v: partial aggregate %+v, want %+v", workers, sch, reuse, agg, refAgg)
				}
			}
		}
	}
}

// TestStopEmitsIndexOrderedRecords: with Stop set, sinks must see the
// record stream in strict trial order (a byte-identical stream across
// schedules), and nothing past the stop index.
func TestStopEmitsIndexOrderedRecords(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	var seen []int
	watcher := stats.NewSequential(stopRule())
	_, err := Run(context.Background(), Config{
		Workers:    8,
		Trials:     300,
		Seed:       19,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		Stop:       watcher,
		Sinks: []TrialSink{SinkFunc(func(r TrialRecord) error {
			seen = append(seen, r.Trial)
			return nil
		})},
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			_, err := inj.InjectRandomNeuron(rng, core.SetValue{V: 1e6})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := watcher.StopTrial()
	if stop < 0 {
		t.Fatal("rule never fired")
	}
	if len(seen) != stop+1 {
		t.Fatalf("sink saw %d records, want %d (stop index %d)", len(seen), stop+1, stop)
	}
	for i, trial := range seen {
		if trial != i {
			t.Fatalf("record %d carries trial %d: stream not index-ordered", i, trial)
		}
	}
}

// microSetup builds a deliberately tiny untrained model over a small
// dataset: its fault space (samples × sites) is a few hundred keys, so a
// few hundred uniform trials are guaranteed to collide — the dedup
// tests need real duplicates, not birthday-paradox luck.
func microSetup(t *testing.T) (*data.Classification, func(int) (*core.Injector, error), []core.LayerInfo) {
	t.Helper()
	ds, err := data.NewClassification(data.ClassificationConfig{
		Classes: 3, Channels: 3, Size: 8, Noise: 0.1, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	build := func() nn.Layer {
		rng := rand.New(rand.NewSource(9))
		return nn.NewSequential("micro",
			nn.NewConv2d("c1", rng, 3, 2, 3, nn.Conv2dConfig{Pad: 1}),
			nn.NewReLU("r1"),
			nn.NewGlobalAvgPool2d("gap"),
			nn.NewFlatten("fl"),
			nn.NewLinear("fc", rng, 2, 3, true),
		)
	}
	ref := build()
	factory := func(worker int) (*core.Injector, error) {
		replica := build()
		if err := nn.ShareParams(replica, ref); err != nil {
			return nil, err
		}
		return core.New(replica, core.Config{Batch: 4, Height: 8, Width: 8, Seed: int64(worker) + 277})
	}
	probe, err := factory(0)
	if err != nil {
		t.Fatal(err)
	}
	layers := probe.Layers()
	probe.Detach()
	return ds, factory, layers
}

// TestDedupMatchesBruteForce pins the dedup soundness contract: filling
// duplicate trials from their canonical outcome yields the exact
// aggregate that executing every trial would — for a deterministic model
// (Zero) and for the replayed perturb-time draw (random-bit flips).
func TestDedupMatchesBruteForce(t *testing.T) {
	ds, factory, layers := microSetup(t)
	eligible := []int{0, 1, 2}
	for _, tc := range []struct {
		name   string
		model  core.ErrorModel
		trials int
	}{
		{"zero", core.Zero{}, 300},
		{"randbit", core.BitFlip{Bit: core.RandomBit}, 600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen, err := stats.NewUniform(layers, tc.model, core.FP32)
			if err != nil {
				t.Fatal(err)
			}
			run := func(dedup bool, workers int) (Aggregate, int64) {
				reg := obs.NewRegistry()
				cfg := Config{
					Workers:    workers,
					Trials:     tc.trials,
					Seed:       23,
					NewReplica: factory,
					Source:     ds,
					Eligible:   eligible,
					ArmTrial:   gen.Arm,
					Metrics:    reg,
				}
				if dedup {
					cfg.Key = gen.Key
				}
				agg, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return agg, reg.Counter(MetricDedupSaved).Value()
			}
			brute, _ := run(false, 4)
			for _, workers := range []int{1, 4} {
				dedup, saved := run(true, workers)
				if dedup != brute {
					t.Fatalf("w=%d: dedup aggregate %+v != brute-force %+v", workers, dedup, brute)
				}
				if saved == 0 {
					t.Fatalf("w=%d: no duplicates found — the equality above proved nothing", workers)
				}
			}
		})
	}
}

// TestStopUnchangedByDedup: dedup fills duplicates with canonical
// verdicts at their own indices, so the watcher's index-ordered stream —
// and therefore the stop index — must be identical with dedup on or off.
func TestStopUnchangedByDedup(t *testing.T) {
	ds, factory, layers := microSetup(t)
	gen, err := stats.NewUniform(layers, core.BitFlip{Bit: 30}, core.FP32)
	if err != nil {
		t.Fatal(err)
	}
	run := func(dedup bool) (int, Aggregate) {
		watcher := stats.NewSequential(stats.StopRule{HalfWidth: 0.08, Confidence: 0.9, MinTrials: 25})
		cfg := Config{
			Workers:    4,
			Trials:     400,
			Seed:       29,
			NewReplica: factory,
			Source:     ds,
			Eligible:   []int{0, 1, 2},
			ArmTrial:   gen.Arm,
			Stop:       watcher,
		}
		if dedup {
			cfg.Key = gen.Key
		}
		agg, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return watcher.StopTrial(), agg
	}
	stopOff, aggOff := run(false)
	stopOn, aggOn := run(true)
	if stopOn != stopOff || aggOn != aggOff {
		t.Fatalf("dedup changed the stop decision: (%d, %+v) vs (%d, %+v)", stopOn, aggOn, stopOff, aggOff)
	}
}

// TestStratifiedCampaignStopsDeterministically drives the stratified
// generator + watcher pair end-to-end through the engine across worker
// counts: the stratified stop index obeys the same determinism contract
// as the sequential one.
func TestStratifiedCampaignStopsDeterministically(t *testing.T) {
	ds, factory, layers := microSetup(t)
	run := func(workers int) (int, Aggregate) {
		gen, err := stats.NewBitFlipStratified(layers, core.FP32)
		if err != nil {
			t.Fatal(err)
		}
		watcher := stats.NewStratified(stats.StopRule{HalfWidth: 0.12, Confidence: 0.9, MinTrials: 64}, gen.Strata())
		agg, err := Run(context.Background(), Config{
			Workers:    workers,
			Trials:     3000,
			Seed:       37,
			NewReplica: factory,
			Source:     ds,
			Eligible:   []int{0, 1, 2},
			ArmTrial:   gen.Arm,
			Key:        gen.Key,
			Stop:       watcher,
		})
		if err != nil {
			t.Fatal(err)
		}
		return watcher.StopTrial(), agg
	}
	stop1, agg1 := run(1)
	stop8, agg8 := run(8)
	if stop1 != stop8 || agg1 != agg8 {
		t.Fatalf("stratified stop not worker-invariant: (%d, %+v) vs (%d, %+v)", stop1, agg1, stop8, agg8)
	}
	if stop1 >= 0 && agg1.Trials+agg1.Skipped != stop1+1 {
		t.Fatalf("partial aggregate covers %d trials, stop index %d", agg1.Trials+agg1.Skipped, stop1)
	}
}

// TestCancellationMidStopLeg is the satellite's cancellation test: a ctx
// cancel landing in the middle of an early-stopping campaign must still
// return the partial aggregate, leave the JSONL sink with only complete,
// index-ordered lines, and leak no goroutines (the -race run of this
// test doubles as the ordering check on the collector shutdown).
func TestCancellationMidStopLeg(t *testing.T) {
	before := runtime.NumGoroutine()
	ds, model, eligible := trainedSetup(t)

	// A JSONL trial sink (the report.TrialJSONL wire format, inlined here
	// because report imports campaign): one compact JSON line per record.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	jsonl := SinkFunc(func(r TrialRecord) error { return enc.Encode(r) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	recordsSeen := 0
	// The rule is tight enough that the cancel (fired from the sink after
	// 10 records) always lands before the stop does.
	watcher := stats.NewSequential(stats.StopRule{HalfWidth: 0.01, Confidence: 0.99, MinTrials: 5000})
	agg, err := Run(ctx, Config{
		Workers:    8,
		Trials:     6000,
		Seed:       43,
		NewReplica: replicaFactory(t, model),
		Source:     ds,
		Eligible:   eligible,
		Stop:       watcher,
		Sinks: []TrialSink{
			SinkFunc(func(TrialRecord) error {
				recordsSeen++
				if recordsSeen == 10 {
					cancel()
				}
				return nil
			}),
			jsonl,
		},
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			_, err := inj.InjectRandomNeuron(rng, core.SetValue{V: 1e6})
			return err
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if watcher.StopTrial() >= 0 {
		t.Fatalf("stop rule fired (trial %d); the cancel was supposed to land first", watcher.StopTrial())
	}
	if agg.Trials == 0 {
		t.Fatal("cancellation discarded the partial aggregate")
	}
	if agg.Trials >= 6000 {
		t.Fatal("cancellation never took effect")
	}
	// Every sink line must be a complete JSON document, and with Stop set
	// the delivered prefix must be index-ordered and contiguous.
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < 10 {
		t.Fatalf("JSONL sink saw %d lines, want >= 10", len(lines))
	}
	for i, line := range lines {
		var rec TrialRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d is not complete JSON (%v): %q", i, err, line)
		}
		if rec.Trial != i {
			t.Fatalf("line %d carries trial %d: delivered prefix not contiguous", i, rec.Trial)
		}
	}
	// No goroutine leak: everything the engine spawned must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGoldenCampaignStop extends the golden matrix with the -stop-ci
// corner: the stop index and the partial aggregate are pinned to a
// committed golden across the full execution matrix. Regenerate with:
// go test ./internal/campaign -run GoldenCampaignStop -update
func TestGoldenCampaignStop(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	type goldenStop struct {
		StopTrial int             `json:"stop_trial"`
		Aggregate goldenAggregate `json:"aggregate"`
	}
	run := func(workers, k int, sch Schedule, reuse bool) goldenStop {
		watcher := stats.NewSequential(stopRule())
		agg, err := Run(context.Background(), Config{
			Workers:     workers,
			Trials:      300,
			Seed:        47,
			NewReplica:  replicaFactory(t, model),
			Source:      ds,
			Eligible:    eligible,
			TrialBatch:  k,
			Schedule:    sch,
			PrefixReuse: reuse,
			Stop:        watcher,
			// The catastrophic model keeps the SDC rate well off zero, so
			// the pinned stop lands mid-stream — past MinTrials, inside the
			// budget — where the frontier ordering actually matters.
			ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
				_, err := inj.InjectRandomNeuron(rng, core.SetValue{V: 1e6})
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return goldenStop{StopTrial: watcher.StopTrial(), Aggregate: goldenFromAggregate(agg)}
	}
	results := make(map[string]goldenStop)
	for _, w := range []int{1, 8} {
		for _, reuse := range []bool{false, true} {
			suffix := "/full"
			if reuse {
				suffix = "/reuse"
			}
			for _, k := range []int{1, 8} {
				results[fmt.Sprintf("w%d/k%d/auto%s", w, k, suffix)] = run(w, k, ScheduleAuto, reuse)
			}
			results[fmt.Sprintf("w%d/k8/pack%s", w, suffix)] = run(w, 8, SchedulePack, reuse)
			results[fmt.Sprintf("w%d/k8/seq%s", w, suffix)] = run(w, 8, ScheduleSeq, reuse)
		}
	}
	ref := results["w1/k1/auto/full"]
	if ref.StopTrial < 0 || ref.StopTrial >= 299 {
		t.Fatalf("stop trial %d leaves no early-stop corner to pin", ref.StopTrial)
	}
	for mode, got := range results {
		if got != ref {
			t.Fatalf("%s diverged: %+v != w1/k1/auto/full %+v", mode, got, ref)
		}
	}
	path := "testdata/golden_campaign_stop.json"
	if *updateGolden {
		buf, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	var want goldenStop
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if ref != want {
		t.Fatalf("stop campaign drifted from golden %s:\n got %+v\nwant %+v", path, ref, want)
	}
}
