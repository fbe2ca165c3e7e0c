package experiments

import (
	"context"
	"fmt"

	"gofi/internal/campaign"
	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/models"
	"gofi/internal/obs"
	"gofi/internal/scenario"
)

// Fig4Config drives the classification-resiliency campaign.
type Fig4Config struct {
	// Models restricts the study (nil = the paper's six ImageNet
	// networks).
	Models []string
	// TrialsPerModel is the number of injection trials per network (the
	// paper runs ~18M per network; scale to CPU budget).
	TrialsPerModel int
	// Workers parallelizes each campaign. It and the fixture fields below
	// default as in GenericCampaignConfig (4 workers, 10 classes, 32 px,
	// 8 epochs, noise 0.6).
	Workers int
	// Classes / InSize describe the synthetic stand-in dataset.
	Classes, InSize int
	// TrainEpochs controls how long each network trains before the
	// campaign (must reach good accuracy so "correctly classified" is a
	// meaningful population).
	TrainEpochs int
	// Noise is the synthetic dataset's pixel-noise std. The default (0.6)
	// leaves realistic decision margins; near-zero noise produces models
	// so over-margined that single faults almost never flip Top-1.
	Noise float32
	Seed  int64
	// Metrics, when non-nil, receives the engines' counters and
	// histograms; all per-model campaigns share the one registry.
	Metrics *obs.Registry
	// Stop, when on, halts each per-model campaign early (TrialsPerModel
	// then caps the budget); see GenericCampaignConfig.Stop.
	Stop stats.StopRule
	// Backend selects the tensor execution path ("f32" default, "int8"
	// for the quantized GEMM/conv backend — see
	// GenericCampaignConfig.Backend).
	Backend string
	// Scenario, when non-nil, replaces the hand-wired single-random-
	// neuron bit-flip arming with the scenario's compiled selector and
	// per-layer error models, applied to every model in the study. The
	// scenario must stay inside the Figure 4 shape: neuron scope, int8
	// value domain, no observers (the study runs one campaign per
	// model; per-layer observer reports belong to gofi-campaign). The
	// scenario's backend supersedes Backend; its model/run blocks are
	// ignored — the study's own fixture fields and budgets apply.
	Scenario *scenario.Scenario
}

func (c Fig4Config) canon() Fig4Config {
	if c.Models == nil {
		c.Models = models.Fig4Models()
	}
	if c.TrialsPerModel <= 0 {
		c.TrialsPerModel = 500
	}
	return c
}

// Fig4Row is one bar of Figure 4.
type Fig4Row struct {
	Model      string
	CleanAcc   float64 // accuracy of the trained INT8-emulated network
	Trials     int
	Top1Mis    int
	Rate       float64
	CILo, CIHi float64 // Wilson 99% interval
	OutOfTop5  int
	NonFinite  int
	// StopTrial is the index the early-stopping rule fired on (-1 when
	// the rule never fired or Stop was off).
	StopTrial int
}

// RunFig4 reproduces Figure 4: for each network, train on the synthetic
// dataset, emulate INT8 neuron quantization, and run a single-bit-flip
// campaign on random neurons of correctly-classified inputs, reporting the
// Top-1 misclassification probability with 99% confidence intervals.
func RunFig4(ctx context.Context, cfg Fig4Config) ([]Fig4Row, error) {
	cfg = cfg.canon()
	var rows []Fig4Row
	for _, name := range cfg.Models {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		row, err := runFig4Model(ctx, name, cfg)
		if err != nil {
			return rows, fmt.Errorf("fig4 %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runFig4Model runs one network's campaign on the generic path: the
// fixture is prepared once and one engine leg runs on the study's own
// engine seed.
func runFig4Model(ctx context.Context, name string, cfg Fig4Config) (Fig4Row, error) {
	gcfg := GenericCampaignConfig{
		Model: name, Classes: cfg.Classes, InSize: cfg.InSize, TrainEpochs: cfg.TrainEpochs, Noise: cfg.Noise,
		Trials: cfg.TrialsPerModel, Workers: cfg.Workers, DType: core.INT8, Backend: cfg.Backend,
		Seed: cfg.Seed, Metrics: cfg.Metrics, PrefixReuse: true, Stop: cfg.Stop,
	}
	if cfg.Scenario == nil {
		gcfg.Arm = armNeuron(core.BitFlip{Bit: core.RandomBit})
	} else {
		// Validate the scenario before training: a rejected config should
		// fail in milliseconds, not after the fixture trains.
		s := cfg.Scenario.Canon()
		if err := s.Validate(); err != nil {
			return Fig4Row{}, err
		}
		if s.Fault.Scope != "neuron" {
			return Fig4Row{}, fmt.Errorf("fig4 scenarios cover neuron faults only, got scope %q", s.Fault.Scope)
		}
		if s.Fault.DType != "int8" {
			return Fig4Row{}, fmt.Errorf("fig4 is the INT8 resiliency study; scenario dtype must be int8, got %q", s.Fault.DType)
		}
		if len(s.Observers) != 0 {
			return Fig4Row{}, fmt.Errorf("fig4 scenarios take no observers; run them through gofi-campaign")
		}
		if cfg.Backend != "" && cfg.Backend != s.Fault.Backend {
			return Fig4Row{}, fmt.Errorf("-backend %s conflicts with the scenario's backend %s", cfg.Backend, s.Fault.Backend)
		}
		// The study's fixture applies to every model, so it replaces the
		// scenario's model block; the fault shape stays the scenario's.
		s.Model = scenario.ModelSpec{Arch: name, Classes: cfg.Classes, InSize: cfg.InSize, Epochs: cfg.TrainEpochs}
		if cfg.Noise != 0 {
			noise := float64(cfg.Noise)
			s.Model.Noise = &noise
		}
		gcfg.Scenario = &s
	}
	env, err := PrepareGenericCampaign(ctx, gcfg)
	if err != nil {
		return Fig4Row{}, err
	}
	agg, stopTrial, err := env.runLeg(ctx, cfg.Seed+17, nil)
	if err != nil {
		return Fig4Row{}, err
	}
	lo, hi := agg.WilsonCI(campaign.Z99)
	return Fig4Row{
		Model:     name,
		CleanAcc:  env.CleanAcc,
		Trials:    agg.Trials,
		Top1Mis:   agg.Top1Mis,
		Rate:      agg.Rate(),
		CILo:      lo,
		CIHi:      hi,
		OutOfTop5: agg.OutOfTop5,
		NonFinite: agg.NonFinite,
		StopTrial: stopTrial,
	}, nil
}
