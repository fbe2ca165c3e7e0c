package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/ibp"
	"gofi/internal/nn"
	"gofi/internal/obs"
)

// Fig6Config drives the IBP vulnerability study.
type Fig6Config struct {
	// Alphas and Epsilons sweep the IBP hyperparameters (defaults: the
	// paper's α ∈ {.025, .1, .25}, ε ∈ {.125, .25, .5, 2}).
	Alphas   []float64
	Epsilons []float32
	// Trials is the number of bit-flip injections per trained model.
	Trials int
	// InSize / Classes size the synthetic CIFAR stand-in.
	InSize, Classes int
	// TrainEpochs per model.
	TrainEpochs int
	Seed        int64
	// Metrics, when non-nil, receives the engines' counters and
	// histograms; all per-model campaigns share the one registry.
	Metrics *obs.Registry
}

func (c Fig6Config) canon() Fig6Config {
	if c.Alphas == nil {
		c.Alphas = []float64{0.025, 0.1, 0.25}
	}
	if c.Epsilons == nil {
		c.Epsilons = []float32{0.125, 0.25, 0.5, 2.0}
	}
	if c.Trials <= 0 {
		c.Trials = 400
	}
	if c.InSize <= 0 {
		c.InSize = 16
	}
	if c.Classes <= 0 {
		c.Classes = 4
	}
	if c.TrainEpochs <= 0 {
		c.TrainEpochs = 6
	}
	return c
}

// Fig6Row is one bar of Figure 6: the vulnerability of AlexNet's first
// two layers under one (α, ε), next to the non-IBP baseline's.
type Fig6Row struct {
	Alpha    float64
	Eps      float32
	CleanAcc float64
	// IBP / Base are the Top-1 misclassification statistics under bit
	// flips confined to the first two convolution layers, drawn for both
	// models from the same engine seed.
	IBP, Base LegStat
}

// Relative is IBP.Rate / Base.Rate (the paper's y-axis; < 1 means IBP
// improved resilience, their headline is up to 4× ⇒ 0.25). It is
// undefined — ok false — when the baseline saw no misclassification.
func (r Fig6Row) Relative() (ratio float64, ok bool) {
	if r.Base.Mis == 0 {
		return 0, false
	}
	return r.IBP.Rate / r.Base.Rate, true
}

// RelativeText renders Relative for a table cell, "n/a" when undefined.
func (r Fig6Row) RelativeText() string {
	if rel, ok := r.Relative(); ok {
		return fmt.Sprintf("%.4g", rel)
	}
	return "n/a"
}

// Fig6Result holds the sweep plus baseline metadata.
type Fig6Result struct {
	BaselineAcc float64
	Rows        []Fig6Row
}

// RunFig6 reproduces Figure 6: train AlexNet with the Eq. 1 IBP objective
// across the (α, ε) grid, then measure the bit-flip vulnerability of the
// first two convolutional layers next to a conventionally trained
// baseline from the same initialization. Each trained network is one
// engine campaign on a pre-built Fixture.
func RunFig6(ctx context.Context, cfg Fig6Config) (Fig6Result, error) {
	cfg = cfg.canon()
	ds, err := dataset(cfg.Classes, cfg.InSize, 0.2, cfg.Seed)
	if err != nil {
		return Fig6Result{}, err
	}
	vulnerability := func(alpha float64, eps float32) (LegStat, float64, error) {
		fx, err := ibpFixture(cfg, ds, alpha, eps)
		if err != nil {
			return LegStat{}, 0, fmt.Errorf("fig6 α=%g ε=%g: %w", alpha, eps, err)
		}
		return fixtureLeg(ctx, fx, GenericCampaignConfig{
			Model: "ibp-alexnet", InSize: cfg.InSize, Trials: cfg.Trials, Seed: cfg.Seed, Metrics: cfg.Metrics,
			Arm: armFirstTwoLayers,
		}, cfg.Seed+11)
	}

	base, baseAcc, err := vulnerability(0, 0)
	if err != nil {
		return Fig6Result{}, err
	}
	res := Fig6Result{BaselineAcc: baseAcc}
	for _, eps := range cfg.Epsilons {
		for _, alpha := range cfg.Alphas {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			stat, acc, err := vulnerability(alpha, eps)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, Fig6Row{Alpha: alpha, Eps: eps, CleanAcc: acc, IBP: stat, Base: base})
		}
	}
	return res, nil
}

// ibpFixture trains the study's AlexNet under the Eq. 1 objective at
// (alpha, eps) — the conventional baseline at (0, 0) — from the study's
// one initialization, and scores it on held-out samples.
func ibpFixture(cfg Fig6Config, ds *data.Classification, alpha float64, eps float32) (Fixture, error) {
	build := func() *ibp.Net {
		return ibp.TinyAlexNet(rand.New(rand.NewSource(cfg.Seed+5)), cfg.Classes, cfg.InSize)
	}
	net := build()
	steps := cfg.TrainEpochs * (384 / 16)
	if _, err := ibp.Train(net, ds, ibp.TrainConfig{
		Epochs: cfg.TrainEpochs, BatchSize: 16, TrainSize: 384,
		LR: 0.02, Momentum: 0.9,
		Alpha: alpha, Eps: eps,
		// The paper ramps from iteration 41 to 123; scale to our step
		// budget.
		RampStart: steps / 3, RampEnd: steps * 2 / 3,
	}); err != nil {
		return Fixture{}, err
	}
	fx := Fixture{Trained: net, Build: func() (nn.Layer, error) { return build(), nil }, Source: ds}
	return fx.scored(50_000, 96), nil
}

// armFirstTwoLayers flips one random bit of one random neuron in one of
// the first two convolution layers, the layers Figure 6 studies.
func armFirstTwoLayers(inj *core.Injector, rng *rand.Rand) error {
	return armLayer(rng.Intn(2), GranNeuron)(inj, rng)
}
