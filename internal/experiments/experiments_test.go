package experiments

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gofi/internal/core"
	"gofi/internal/models"
	"gofi/internal/obs"
)

// The experiment runners are exercised end-to-end at reduced scale; the
// cmd binaries and benchmarks run them at full scale.

// skipIfShort gates the training-heavy end-to-end runners out of -short
// runs; run_checks.sh uses -short for the race-detector pass, where
// training is roughly an order of magnitude slower.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("training-heavy end-to-end test; skipped in -short mode")
	}
}

func TestRunFig3Subset(t *testing.T) {
	skipIfShort(t)
	rows, err := RunFig3(context.Background(), Fig3Config{
		Trials: 2,
		Entries: []models.Fig3Entry{
			{Model: "alexnet", Label: "AlexNet", Dataset: "CIFAR10", Classes: 10, InSize: 32},
			{Model: "squeezenet", Label: "SqueezeNet", Dataset: "ImageNet", Classes: 10, InSize: 32},
		},
		ParallelWorkers: 4,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 entries × 2 backends
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.BaseSec <= 0 || r.FISec <= 0 {
			t.Fatalf("non-positive timing in %+v", r)
		}
		// The headline claim: overhead is small relative to the runtime.
		// At trials=2 on a possibly-loaded CI box wall-clock noise can be
		// several× the true runtime, so only catch gross regressions
		// (e.g. an accidental O(sites) scan making FI 10× slower).
		if r.FISec > 10*r.BaseSec {
			t.Fatalf("injection blew up the runtime: %+v", r)
		}
	}
	if rows[0].Backend != "serial" || rows[1].Backend != "parallel" {
		t.Fatalf("backend order: %+v", rows[:2])
	}
}

func TestRunBatchSweep(t *testing.T) {
	skipIfShort(t)
	rows, err := RunBatchSweep(context.Background(), "alexnet", 16, []int{1, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Fastest pass, not the mean of two: one descheduled batch-1 pass on a
	// loaded machine otherwise outweighs the 4x work.
	if rows[1].Base.MinSec <= rows[0].Base.MinSec {
		t.Fatalf("batch 4 not slower than batch 1: %+v", rows)
	}
}

// TestLayerOverheadResolvesBelowABucket: the per-layer instrument exists
// to resolve hook overhead of a microsecond or less, so its deltas must
// come from raw samples. Read off a log-bucketed histogram they are all
// whole bucket steps — multiples of a power of two well above the clock's
// resolution — and say nothing about the hooks.
func TestLayerOverheadResolvesBelowABucket(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := RunLayerOverhead(context.Background(), LayerOverheadConfig{Model: "alexnet", InSize: 16, Trials: 9, Seed: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("alexnet has 5 hooked layers, got %d rows", len(res.Rows))
	}
	step := int64(0)
	for _, r := range res.Rows {
		if !(r.BareMinUs > 0 && r.BareMinUs <= r.BareP50Us && r.FIMinUs > 0 && r.FIMinUs <= r.FIP50Us) {
			t.Errorf("layer %d: min/median out of order: %+v", r.Layer, r)
		}
		for a, b := int64(math.Round(math.Abs(r.DeltaP50Us)*1e3)), step; ; a, b = b, a%b {
			if b == 0 {
				step = a
				break
			}
		}
	}
	if step >= 64 {
		t.Errorf("every Δp50 is a multiple of %d ns: bucket steps, not samples: %+v", step, res.Rows)
	}
	if res.Bare.MinSec <= 0 || res.FI.MinSec <= 0 || res.Int8.MinSec <= 0 || res.Int8SpeedupP50 <= 0 {
		t.Errorf("whole-network timings missing: %+v", res)
	}
	if n := reg.Snapshot().Histograms["fi.000.alexnet.conv1.forward_ns"].Count; n != 9 {
		t.Errorf("-metrics histogram of the first layer holds %d samples, want 9", n)
	}
}

func TestRunFig4SingleModel(t *testing.T) {
	skipIfShort(t)
	rows, err := RunFig4(context.Background(), Fig4Config{
		Models:         []string{"alexnet"},
		TrialsPerModel: 40,
		Workers:        2,
		Classes:        4,
		InSize:         16,
		TrainEpochs:    6,
		Noise:          0.2,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Trials != 40 {
		t.Fatalf("trials = %d", r.Trials)
	}
	if r.Rate < 0 || r.Rate > 1 || r.CILo > r.Rate || r.CIHi < r.Rate {
		t.Fatalf("rate/CI inconsistent: %+v", r)
	}
	if r.CleanAcc < 0.5 {
		t.Fatalf("clean accuracy %.2f too low for a meaningful campaign", r.CleanAcc)
	}
}

func TestRunFig5Small(t *testing.T) {
	skipIfShort(t)
	res, err := RunFig5(context.Background(), Fig5Config{
		Scenes:             4,
		InjectionsPerScene: 2,
		SceneSize:          32,
		TrainEpochs:        8,
		Seed:               4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenes != 4 || res.InjectedRuns != 8 {
		t.Fatalf("counts %+v", res)
	}
	if res.CleanTP == 0 {
		t.Fatal("clean detector found nothing")
	}
	// The Figure 5 shape: injections create more phantoms per run than
	// clean inference does.
	cleanRate := float64(res.CleanPhantoms) / float64(res.Scenes)
	fiRate := float64(res.FIPhantoms) / float64(res.InjectedRuns)
	if fiRate < cleanRate {
		t.Fatalf("injections produced fewer phantoms (%.2f/run) than clean inference (%.2f/run)", fiRate, cleanRate)
	}
	if res.ExampleGT == nil {
		t.Fatal("missing example scene")
	}
}

func TestRunFig6SinglePoint(t *testing.T) {
	skipIfShort(t)
	res, err := RunFig6(context.Background(), Fig6Config{
		Alphas:      []float64{0.1},
		Epsilons:    []float32{0.125},
		Trials:      60,
		InSize:      16,
		Classes:     4,
		TrainEpochs: 4,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	for name, s := range map[string]LegStat{"ibp": r.IBP, "baseline": r.Base} {
		if s.Trials != 60 || s.Rate != float64(s.Mis)/60 || s.CILo > s.Rate || s.Rate > s.CIHi || s.CIHi <= s.CILo {
			t.Fatalf("%s statistic: %+v", name, s)
		}
	}
	if rel, ok := r.Relative(); ok != (r.Base.Mis > 0) || math.IsNaN(rel) {
		t.Fatalf("relative %v, %v on %+v", rel, ok, r)
	}
	// A baseline that saw no misclassification leaves the ratio
	// undefined; it must not read as "IBP perfectly resilient".
	r.Base.Mis, r.Base.Rate = 0, 0
	if _, ok := r.Relative(); ok || r.RelativeText() != "n/a" {
		t.Fatalf("zero-baseline ratio renders %q, want n/a", r.RelativeText())
	}
	if res.BaselineAcc < 0.5 || r.CleanAcc < 0.4 {
		t.Fatalf("accuracies too low: base %.2f ibp %.2f", res.BaselineAcc, r.CleanAcc)
	}
}

func TestRunTable1Small(t *testing.T) {
	skipIfShort(t)
	res, err := RunTable1(context.Background(), Table1Config{
		Model:      "resnet18",
		Classes:    4,
		InSize:     16,
		Epochs:     2,
		TrainSize:  128,
		BatchSize:  16,
		EvalTrials: 60,
		Noise:      0.2,
		Seed:       6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineTrainTime <= 0 || res.FITrainTime <= 0 {
		t.Fatalf("timings %+v", res)
	}
	if res.BaselineAcc < 0.4 || res.FIAcc < 0.4 {
		t.Fatalf("accuracies too low: %+v", res)
	}
	for name, s := range map[string]LegStat{"baseline": res.Baseline, "FI": res.FI} {
		if s.Trials != 60 || s.Rate != float64(s.Mis)/60 || s.CILo > s.Rate || s.Rate > s.CIHi || s.CIHi <= s.CILo {
			t.Fatalf("%s statistic: %+v", name, s)
		}
	}
	// The verdict names a direction only when the intervals are disjoint.
	for _, c := range []struct {
		fi, base LegStat
		want     string
	}{
		{LegStat{CILo: 0.01, CIHi: 0.02}, LegStat{CILo: 0.03, CIHi: 0.04}, "MORE resilient"},
		{LegStat{CILo: 0.03, CIHi: 0.04}, LegStat{CILo: 0.01, CIHi: 0.02}, "LESS resilient"},
		{LegStat{Trials: 3000, CILo: 0.020, CIHi: 0.035}, LegStat{CILo: 0.021, CIHi: 0.036}, "not resolved at 3000 trials"},
		{res.FI, res.Baseline, "not resolved at 60 trials"},
	} {
		if got := (Table1Result{FI: c.fi, Baseline: c.base}).Verdict(); !strings.Contains(got, c.want) {
			t.Fatalf("verdict for FI %+v vs baseline %+v = %q, want %q", c.fi, c.base, got, c.want)
		}
	}
	// Training-time parity: FI training should not be drastically slower
	// (the paper reports +24 s on 2h8m; we allow 3× at this tiny scale
	// since absolute times are milliseconds).
	if res.FITrainTime > 3*res.BaselineTrainTime {
		t.Fatalf("FI training %.2fx slower", float64(res.FITrainTime)/float64(res.BaselineTrainTime))
	}
}

func TestRunFig7Small(t *testing.T) {
	skipIfShort(t)
	res, err := RunFig7(context.Background(), Fig7Config{
		Model:       "densenet",
		Classes:     4,
		InSize:      16,
		TrainEpochs: 3,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CleanCAM == nil || res.LeastCAM == nil || res.MostCAM == nil {
		t.Fatal("missing heatmaps")
	}
	if res.LeastFmap == res.MostFmap {
		t.Fatal("least and most sensitive fmaps identical")
	}
	// The Figure 7 shape: the most-sensitive injection must disturb the
	// heatmap at least as much as the least-sensitive one.
	if res.MostL2 < res.LeastL2 {
		t.Fatalf("most-sensitive Δ=%.3g < least-sensitive Δ=%.3g", res.MostL2, res.LeastL2)
	}
	if res.TargetLayer == "" {
		t.Fatal("missing target layer path")
	}
}

func TestRunLayerVuln(t *testing.T) {
	skipIfShort(t)
	rows, err := RunLayerVuln(context.Background(), LayerVulnConfig{
		Model:          "alexnet",
		Classes:        4,
		InSize:         16,
		TrialsPerLayer: 20,
		TrainEpochs:    6,
		Noise:          0.2,
		Seed:           8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// AlexNet has 5 convolutions.
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Trials != 20 || r.Rate < 0 || r.Rate > 1 {
			t.Fatalf("row %+v", r)
		}
		if r.Path == "" || len(r.OutShape) != 4 {
			t.Fatalf("row metadata %+v", r)
		}
	}
}

func TestRunLayerVulnFMapGranularity(t *testing.T) {
	skipIfShort(t)
	rows, err := RunLayerVuln(context.Background(), LayerVulnConfig{
		Model:          "alexnet",
		Classes:        4,
		InSize:         16,
		TrialsPerLayer: 10,
		TrainEpochs:    6,
		Noise:          0.2,
		Granularity:    GranFMap,
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if GranFMap.String() != "fmap" || GranNeuron.String() != "neuron" {
		t.Fatal("granularity names")
	}
}

func TestRunGenericCampaignScopes(t *testing.T) {
	skipIfShort(t)
	arm := func(inj *core.Injector, rng *rand.Rand) error {
		_, err := inj.InjectRandomNeuron(rng, core.Zero{})
		return err
	}
	base := GenericCampaignConfig{
		Model:       "alexnet",
		Classes:     4,
		InSize:      16,
		TrainEpochs: 6,
		Noise:       0.2,
		Trials:      20,
		Workers:     2,
		DType:       core.FP32,
		Arm:         arm,
		Seed:        11,
	}
	res, err := RunGenericCampaign(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Trials != 20 || res.EligibleCount == 0 {
		t.Fatalf("result %+v", res)
	}

	// Weight scope with isolation: workers mutate private copies.
	weightCfg := base
	weightCfg.IsolateWeights = true
	weightCfg.Arm = func(inj *core.Injector, rng *rand.Rand) error {
		_, err := inj.InjectRandomWeight(rng, core.SetValue{V: 100})
		return err
	}
	wres, err := RunGenericCampaign(context.Background(), weightCfg)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Aggregate.Trials != 20 {
		t.Fatalf("weight campaign %+v", wres)
	}

	// FP16 dtype path.
	fp16Cfg := base
	fp16Cfg.DType = core.FP16
	if _, err := RunGenericCampaign(context.Background(), fp16Cfg); err != nil {
		t.Fatal(err)
	}

	// Missing Arm is rejected.
	noArm := base
	noArm.Arm = nil
	if _, err := RunGenericCampaign(context.Background(), noArm); err == nil {
		t.Fatal("nil Arm must error")
	}
}

func TestRunBitStudy(t *testing.T) {
	skipIfShort(t)
	rows, err := RunBitStudy(context.Background(), BitStudyConfig{
		Model:        "alexnet",
		Classes:      4,
		InSize:       16,
		TrainEpochs:  6,
		Noise:        0.2,
		TrialsPerBit: 10,
		Workers:      2,
		DType:        core.INT8,
		Seed:         12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("INT8 study has %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Trials != 10 || r.Rate < 0 || r.Rate > 1 {
			t.Fatalf("row %+v", r)
		}
	}
	// High-order magnitude bits must be at least as damaging as the
	// lowest-order bit (summed over the top two vs bit 0).
	if rows[6].Rate+rows[5].Rate < rows[0].Rate {
		t.Logf("warning: unusual bit profile %+v", rows)
	}
}
