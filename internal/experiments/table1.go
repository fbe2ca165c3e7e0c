package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/train"
)

// Table1Config drives the error-injection-training comparison.
type Table1Config struct {
	// Model is the architecture to train (the paper uses ResNet-18).
	Model string
	// Classes / InSize size the synthetic CIFAR-10 stand-in.
	Classes, InSize int
	// Epochs / TrainSize / BatchSize for both twin trainings.
	Epochs, TrainSize, BatchSize int
	// EvalTrials is the post-training injection count per model (the
	// paper runs 24M; scale to CPU budget).
	EvalTrials int
	// Noise is the synthetic dataset's pixel-noise std (default 0.6; see
	// Fig4Config.Noise).
	Noise float32
	Seed  int64
	// Metrics, when non-nil, receives the train-time injector's
	// perturbation tallies and the evaluation engines' counters.
	Metrics *obs.Registry
}

func (c Table1Config) canon() Table1Config {
	if c.Model == "" {
		c.Model = "resnet18"
	}
	if c.Classes <= 0 {
		c.Classes = 10
	}
	if c.InSize <= 0 {
		c.InSize = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 4
	}
	if c.TrainSize <= 0 {
		c.TrainSize = 384
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.EvalTrials <= 0 {
		c.EvalTrials = 500
	}
	if c.Noise == 0 {
		c.Noise = 0.8
	}
	return c
}

// Table1Result mirrors the paper's Table I.
type Table1Result struct {
	BaselineTrainTime, FITrainTime time.Duration
	BaselineAcc, FIAcc             float64
	// Baseline / FI are the post-training misclassification statistics of
	// the two twins, drawn from the same engine seed.
	Baseline, FI LegStat
}

// Verdict states what the two Wilson 99% intervals support about the
// injection-trained twin's resilience, and nothing they do not: a
// direction only when the intervals are disjoint.
func (r Table1Result) Verdict() string {
	switch {
	case r.FI.CIHi < r.Baseline.CILo:
		return "injection-trained model is MORE resilient (its 99% interval lies below the baseline's), matching the paper"
	case r.FI.CILo > r.Baseline.CIHi:
		return "injection-trained model is LESS resilient (its 99% interval lies above the baseline's), contrary to the paper"
	}
	return fmt.Sprintf("not resolved at %d trials: the twins' 99%% intervals overlap; train longer or evaluate more trials", r.FI.Trials)
}

// RunTable1 reproduces Table I: train two models from identical
// initialization — one conventionally, one with a random neuron per layer
// set to U[-1,1) on every training forward pass (§IV-D) — then compare
// training time, clean test accuracy, and post-training
// misclassifications under single-bit-flip injections (the §IV-A
// methodology the paper's evaluation references). Each twin's evaluation
// is one engine campaign on a pre-built Fixture.
func RunTable1(ctx context.Context, cfg Table1Config) (Table1Result, error) {
	cfg = cfg.canon()
	if err := ctx.Err(); err != nil {
		return Table1Result{}, err
	}
	ds, err := dataset(cfg.Classes, cfg.InSize, cfg.Noise, cfg.Seed)
	if err != nil {
		return Table1Result{}, err
	}
	baseline, baseTime, err := trainTwin(cfg, ds, false)
	if err != nil {
		return Table1Result{}, fmt.Errorf("table1 baseline training: %w", err)
	}
	fiTwin, fiTime, err := trainTwin(cfg, ds, true)
	if err != nil {
		return Table1Result{}, fmt.Errorf("table1 FI training: %w", err)
	}
	res := Table1Result{
		BaselineTrainTime: baseTime, FITrainTime: fiTime,
		BaselineAcc: train.Accuracy(baseline.Trained, ds, 100_000, 128, 16),
		FIAcc:       train.Accuracy(fiTwin.Trained, ds, 100_000, 128, 16),
	}

	// Post-training resiliency evaluation under the §IV-A error model,
	// both twins on one engine seed so trial t draws the same stream.
	evaluate := func(fx Fixture) (LegStat, error) {
		stat, _, err := fixtureLeg(ctx, fx, GenericCampaignConfig{
			Model: cfg.Model, InSize: cfg.InSize, Trials: cfg.EvalTrials, Seed: cfg.Seed, Metrics: cfg.Metrics,
			Arm: armNeuron(core.BitFlip{Bit: core.RandomBit}),
		}, cfg.Seed+31)
		return stat, err
	}
	if res.Baseline, err = evaluate(baseline); err != nil {
		return Table1Result{}, err
	}
	if res.FI, err = evaluate(fiTwin); err != nil {
		return Table1Result{}, err
	}
	return res, nil
}

// trainTwin trains one Table I twin from the twins' identical
// initialization and returns it as a scored fixture with its training
// time. With inject set the model is instrumented and one random neuron
// per layer is re-armed with U[-1,1) before every training forward pass
// (§IV-D); the injector is gone again before the twin is scored, so both
// twins are evaluated un-hooked.
func trainTwin(cfg Table1Config, ds *data.Classification, inject bool) (Fixture, time.Duration, error) {
	build := func() (nn.Layer, error) {
		return models.Build(cfg.Model, rand.New(rand.NewSource(cfg.Seed+21)), cfg.Classes, cfg.InSize)
	}
	model, err := build()
	if err != nil {
		return Fixture{}, 0, err
	}
	tc := train.Config{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, TrainSize: cfg.TrainSize,
		LR: 0.02, Momentum: 0.9,
	}
	detach := func() {}
	if inject {
		inj, err := core.New(model, core.Config{
			Batch: cfg.BatchSize, Height: cfg.InSize, Width: cfg.InSize, Seed: cfg.Seed + 22,
		})
		if err != nil {
			return Fixture{}, 0, err
		}
		detach = func() { inj.Reset(); inj.Detach() }
		inj.SetMetrics(cfg.Metrics)
		siteRng := rand.New(rand.NewSource(cfg.Seed + 23))
		tc.BeforeForward = func(step int) {
			inj.Reset()
			if _, err := inj.InjectRandomNeuronPerLayer(siteRng, core.DefaultRandomValue()); err != nil {
				panic(fmt.Sprintf("table1: arming validated sites failed: %v", err))
			}
		}
	}
	start := time.Now()
	_, err = train.Loop(model, ds, tc)
	elapsed := time.Since(start)
	detach()
	if err != nil {
		return Fixture{}, 0, err
	}
	return Fixture{Trained: model, Build: build, Source: ds}.scored(200_000, 96), elapsed, nil
}
